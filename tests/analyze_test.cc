/// \file analyze_test.cc
/// \brief Ruleset static analyzer: golden diagnostic fixtures
/// (tests/golden/analyze/), the --analyze gate the repair commands run,
/// and the soundness property "analyze-clean rulesets never conflict
/// mid-repair".

#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "incremental/delta_repair.h"
#include "test_util.h"
#include "tools/cli.h"
#include "util/random.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Chomp(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

// ---------------------------------------------------------------------------
// Golden fixtures: each directory under tests/golden/analyze/ holds a
// seeded bad ruleset; `cli analyze --json` must reproduce expected.json
// byte-for-byte (the JSON layout is a stable interface).

struct GoldenCase {
  const char* dir;
  int exit_plain;   // exit without --strict
  int exit_strict;  // exit with --strict
};

class AnalyzeGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AnalyzeGoldenTest, JsonMatchesGolden) {
  const GoldenCase& c = GetParam();
  std::string dir = std::string(CERTFIX_GOLDEN_DIR) + "/analyze/" + c.dir;
  std::string trusted = Chomp(ReadFile(dir + "/trusted"));
  std::vector<std::string> args = {
      "analyze",   "--master", dir + "/master.csv", "--rules",
      dir + "/rules.rules", "--trusted", trusted,   "--json"};

  std::ostringstream out, err;
  EXPECT_EQ(RunCli(args, out, err), c.exit_plain) << err.str();
  EXPECT_EQ(out.str(), ReadFile(dir + "/expected.json"));

  args.push_back("--strict");
  std::ostringstream out2, err2;
  EXPECT_EQ(RunCli(args, out2, err2), c.exit_strict) << err2.str();
  EXPECT_EQ(out2.str(), out.str()) << "--strict must not change the report";
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, AnalyzeGoldenTest,
    ::testing::Values(
        // conflict: error diagnostic, but plain analyze still exits 0.
        GoldenCase{"conflict", 0, 2},
        // cross-round: a round-1 fix conflicts with a round-2 proposal;
        // the report must name the two proposing rules.
        GoldenCase{"cross-round", 0, 2},
        // dead / cycle / gap: warnings only; strict passes.
        GoldenCase{"dead", 0, 0}, GoldenCase{"cycle", 0, 0},
        GoldenCase{"gap", 0, 0},
        // missing-attr: the ruleset cannot parse; always exit 2.
        GoldenCase{"missing-attr", 2, 2}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.dir;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Analyzer unit tests on the paper's supplier fixture.

class AnalyzerSupplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
};

TEST_F(AnalyzerSupplierTest, CleanRulesetHasNoErrors) {
  RulesetAnalyzer analyzer(rules_);
  RulesetReport report =
      analyzer.Analyze(&dm_, Attrs(r_, {"zip", "phn", "type"}));
  EXPECT_EQ(report.errors(), 0u) << report.ToText();
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.probes, 0u);
  ASSERT_EQ(report.summary.size(), rules_.size());
  // phi1 (zip -> AC) is reachable and feeds phi6-phi9 via AC.
  EXPECT_TRUE(report.summary[0].reachable);
  EXPECT_GT(report.summary[0].fanout, 0u);
}

TEST_F(AnalyzerSupplierTest, ConflictFoundWithWitness) {
  // Example 5 (t3): AC/phn and zip both trusted lets phi2 (zip -> str)
  // and phi6 (AC, phn -> str) disagree across the two master tuples.
  RulesetAnalyzer analyzer(rules_);
  RulesetReport report =
      analyzer.Analyze(&dm_, Attrs(r_, {"AC", "phn", "type", "zip"}));
  ASSERT_GT(report.errors(), 0u) << report.ToText();
  const Diagnostic* first = report.FirstError();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->kind, DiagnosticKind::kRuleConflict);
  EXPECT_EQ(first->rules.size(), 2u);
  EXPECT_FALSE(first->witness.empty());
  EXPECT_NE(first->message.find("conflicting fixes"), std::string::npos);
}

TEST_F(AnalyzerSupplierTest, DeadRuleWhenTargetTrusted) {
  // zip trusted makes phi8 (AC, phn -> zip) pointless.
  RulesetAnalyzer analyzer(rules_);
  RulesetReport report =
      analyzer.Analyze(&dm_, Attrs(r_, {"zip", "phn", "type"}));
  bool found = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.kind == DiagnosticKind::kDeadRule &&
        !d.rules.empty() && d.rules[0] == "phi8") {
      found = true;
      EXPECT_NE(d.message.find("already trusted"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << report.ToText();
}

TEST_F(AnalyzerSupplierTest, ShadowedRuleFlagged) {
  // s2 is s1 restricted by a pattern: every move s2 makes, s1 makes.
  RuleSet rules(r_, rm_);
  Result<RuleSet> parsed = ParseRules(
      "rule s1: (zip | zip) -> (AC | AC)\n"
      "rule s2: (zip | zip) -> (AC | AC) when type=1\n",
      r_, rm_);
  ASSERT_TRUE(parsed.ok());
  RulesetAnalyzer analyzer(*parsed);
  RulesetReport report = analyzer.Analyze(&dm_, Attrs(r_, {"zip", "type"}));
  bool found = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.kind == DiagnosticKind::kShadowedRule) {
      found = true;
      ASSERT_EQ(d.rules.size(), 2u);
      EXPECT_EQ(d.rules[0], "s2");  // the redundant rule leads
      EXPECT_EQ(d.rules[1], "s1");
    }
  }
  EXPECT_TRUE(found) << report.ToText();
}

TEST_F(AnalyzerSupplierTest, BudgetTruncationWarns) {
  AnalyzeOptions options;
  options.max_probes = 1;
  RulesetAnalyzer analyzer(rules_);
  RulesetReport report =
      analyzer.Analyze(&dm_, Attrs(r_, {"AC", "phn", "type", "zip"}), options);
  bool budget = false;
  for (const Diagnostic& d : report.diagnostics) {
    budget |= d.kind == DiagnosticKind::kAnalysisBudget;
  }
  EXPECT_TRUE(budget) << report.ToText();
  EXPECT_LE(report.probes, 1u);
}

TEST(AnalyzerTypeTest, PositionalTypeMismatchFlagged) {
  // R.phn is an int but the master key it compares against is a string:
  // the key can never match, and the fix copy is equally ill-typed.
  SchemaPtr r = Schema::Make(
      "R", std::vector<Attribute>{{"phn", DataType::kInt},
                                  {"zip", DataType::kString}});
  SchemaPtr rm = Schema::Make(
      "Master", std::vector<Attribute>{{"phn", DataType::kString},
                                       {"zip", DataType::kString}});
  Result<RuleSet> rules =
      ParseRules("rule t1: (phn | phn) -> (zip | zip)\n", r, rm);
  ASSERT_TRUE(rules.ok()) << rules.status();
  RulesetAnalyzer analyzer(*rules);
  Relation dm(rm);
  ASSERT_TRUE(dm.AppendStrings({"6884563", "EH7"}).ok());
  RulesetReport report = analyzer.Analyze(&dm, AttrSet{});
  ASSERT_GT(report.errors(), 0u);
  EXPECT_EQ(report.FirstError()->kind, DiagnosticKind::kTypeMismatch);
  EXPECT_NE(report.FirstError()->message.find("can never match"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The --analyze gate (GateRuleset) the repair commands run before any
// engine exists. The conflicting fixture: two key attributes each backed
// by a rule targeting AC, with master rows that disagree on AC.

class StrictGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make(
        "R", std::vector<std::string>{"zip", "AC", "city", "name"});
    master_ = Relation(schema_);
    ASSERT_TRUE(master_.AppendStrings({"EH7", "131", "Edi", "Ann"}).ok());
    ASSERT_TRUE(master_.AppendStrings({"NW1", "020", "Lnd", "Cid"}).ok());
    Result<RuleSet> rules = ParseRules(
        "rule r1: (zip | zip) -> (AC | AC)\n"
        "rule r2: (city | city) -> (AC | AC)\n",
        schema_, schema_);
    ASSERT_TRUE(rules.ok());
    rules_ = std::move(*rules);
    trusted_ = Attrs(schema_, {"zip", "city", "name"});
  }

  SchemaPtr schema_;
  Relation master_;
  RuleSet rules_;
  AttrSet trusted_;
};

TEST_F(StrictGateTest, StrictRefusesWithTheWitness) {
  Status gate =
      GateRuleset(rules_, master_, trusted_, AnalyzeMode::kStrict);
  ASSERT_FALSE(gate.ok());
  EXPECT_EQ(gate.code(), StatusCode::kInconsistent);
  EXPECT_NE(gate.message().find("conflicting fixes"), std::string::npos)
      << gate;
  EXPECT_NE(gate.message().find("'r1'"), std::string::npos) << gate;
  EXPECT_NE(gate.message().find("'r2'"), std::string::npos) << gate;
  EXPECT_NE(gate.message().find("zip="), std::string::npos)
      << "witness tuple must be in the error";
}

TEST_F(StrictGateTest, WarnAndOffReturnOk) {
  for (AnalyzeMode mode : {AnalyzeMode::kOff, AnalyzeMode::kWarn}) {
    EXPECT_TRUE(GateRuleset(rules_, master_, trusted_, mode).ok());
  }
}

// ---------------------------------------------------------------------------
// Soundness property: a ruleset the analyzer passes with zero errors
// never classifies a tuple as conflicting mid-repair — across seeded
// dirty inputs and delta sequences (the analyzer's candidate-domain
// enumeration covers every value combination the trusted attributes can
// take against the master).

TEST(AnalyzeSoundnessTest, CleanVerdictImpliesNoMidRepairConflicts) {
  for (uint64_t seed : {7u, 17u, 27u}) {
    SchemaPtr schema = HospWorkload::MakeSchema();
    RuleSet rules = HospWorkload::MakeRules(schema);
    Rng rng(seed);
    Relation master = HospWorkload::MakeMaster(schema, 60, &rng);
    AttrSet trusted = AttrSet::FromVector(
        {*schema->IndexOf("id"), *schema->IndexOf("mCode")});

    RulesetAnalyzer analyzer(rules);
    RulesetReport report = analyzer.Analyze(&master, trusted);
    ASSERT_EQ(report.errors(), 0u)
        << "seed " << seed << ": " << report.ToText();

    // Dirty pool: master-derived rows with noise outside the trusted
    // key, plus rows from a disjoint entity pool (match no master).
    Rng rng2(seed * 31 + 7);
    Relation non_master = HospWorkload::MakeMaster(schema, 40, &rng2, 500000);
    DirtyGenOptions gen_options;
    gen_options.duplicate_rate = 0.6;
    gen_options.noise_rate = 0.5;
    gen_options.protected_attrs = trusted;
    gen_options.seed = seed * 7 + 1;
    DirtyGenerator gen(master, non_master, gen_options);
    Relation pool(schema);
    for (const DirtyPair& pair : gen.Generate(120)) {
      ASSERT_TRUE(pool.Append(pair.dirty).ok());
    }

    DeltaRepairOptions options;
    options.num_shards = 1 + seed % 3;
    DeltaRepairEngine engine(rules, master, trusted, options);

    // Seeded delta sequence: inserts, updates, deletes, and master
    // inserts from a third disjoint entity pool (master stays
    // consistent, so the construction-time verdict keeps holding).
    Rng rng3(seed * 131 + 3);
    Relation master_pool = HospWorkload::MakeMaster(schema, 16, &rng3, 900000);
    size_t next_insert = 0, next_master = 0;
    Rng drive(seed * 997 + 13);
    for (int step = 0; step < 120; ++step) {
      double roll = drive.NextDouble();
      if (roll < 0.45 || engine.size() == 0) {
        ASSERT_TRUE(
            engine.Insert(pool.at(next_insert++ % pool.size())).ok());
      } else if (roll < 0.70) {
        ASSERT_TRUE(engine
                        .Update(drive.Index(engine.size()),
                                pool.at(next_insert++ % pool.size()))
                        .ok());
      } else if (roll < 0.85) {
        ASSERT_TRUE(engine.Delete(drive.Index(engine.size())).ok());
      } else {
        ASSERT_TRUE(
            engine.MasterInsert(master_pool.at(next_master++ % master_pool.size()))
                .ok());
      }
    }
    DeltaRepairStats stats = engine.stats();
    EXPECT_EQ(stats.conflicting, 0u)
        << "seed " << seed
        << ": analyze-clean ruleset produced a conflicting repair";
    EXPECT_GT(stats.tuples_repaired, 0u);
  }
}

}  // namespace
}  // namespace certfix
