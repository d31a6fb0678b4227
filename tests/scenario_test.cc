// Unit tests for the adversarial scenario generator (workload/scenario.h):
// the TOML-subset spec parser, the popularity/arrival/error models, and
// the per-(spec, seed) byte-determinism contract. Cross-engine agreement
// over the checked-in corpus lives in scenario_corpus_test.cc.

#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <sstream>

#include "relational/csv.h"
#include "relational/csv_stream.h"
#include "workload/arrival.h"
#include "workload/dblp.h"
#include "workload/error_model.h"

namespace certfix {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(ScenarioSpecTest, ParsesFullSpec) {
  const char* text = R"(
name = "full"
workload = "dblp"
seed = 9
master_rows = 50
initial_rows = 10
deltas = 77
duplicate_rate = 0.5

[popularity]
kind = "hotset"          # inline comment
hot_fraction = 0.2
hot_rate = 0.8
shift_every = 25

[arrival]
kind = "bursty"
master_ratio = 0.3
burst_min = 2
burst_max = 5

[errors]
tuple_error_rate = 0.4
cluster_len = 2
hostile_weight = 0.3
master_noise_rate = 0.1
)";
  Result<ScenarioSpec> spec = ParseScenarioSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "full");
  EXPECT_EQ(spec->workload, "dblp");
  EXPECT_EQ(spec->seed, 9u);
  EXPECT_EQ(spec->master_rows, 50u);
  EXPECT_EQ(spec->initial_rows, 10u);
  EXPECT_EQ(spec->num_deltas, 77u);
  EXPECT_DOUBLE_EQ(spec->duplicate_rate, 0.5);
  EXPECT_EQ(spec->popularity.kind, PopularityKind::kHotSet);
  EXPECT_DOUBLE_EQ(spec->popularity.hot_fraction, 0.2);
  EXPECT_EQ(spec->popularity.shift_every, 25u);
  EXPECT_EQ(spec->arrival.kind, ArrivalKind::kBursty);
  EXPECT_DOUBLE_EQ(spec->arrival.master_ratio, 0.3);
  EXPECT_EQ(spec->arrival.burst_min, 2u);
  EXPECT_EQ(spec->arrival.burst_max, 5u);
  EXPECT_DOUBLE_EQ(spec->errors.tuple_error_rate, 0.4);
  EXPECT_EQ(spec->errors.cluster_len, 2u);
  EXPECT_DOUBLE_EQ(spec->errors.hostile_weight, 0.3);
  EXPECT_DOUBLE_EQ(spec->master_noise_rate, 0.1);
}

TEST(ScenarioSpecTest, DefaultNameComesFromCaller) {
  Result<ScenarioSpec> spec =
      ParseScenarioSpec("workload = \"hosp\"\n", "stem-name");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "stem-name");
}

TEST(ScenarioSpecTest, UnknownTopLevelKeyFails) {
  Result<ScenarioSpec> spec = ParseScenarioSpec("wrkload = \"hosp\"\n", "x");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
  EXPECT_NE(spec.status().message().find("wrkload"), std::string::npos);
  EXPECT_NE(spec.status().message().find("line 1"), std::string::npos);
}

TEST(ScenarioSpecTest, UnknownSectionKeyFails) {
  Result<ScenarioSpec> spec =
      ParseScenarioSpec("[popularity]\nalfa = 1.0\n", "x");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("[popularity]"), std::string::npos);
}

TEST(ScenarioSpecTest, UnknownSectionFails) {
  Result<ScenarioSpec> spec = ParseScenarioSpec("[popluarity]\n", "x");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
}

TEST(ScenarioSpecTest, MalformedValuesFail) {
  EXPECT_FALSE(ParseScenarioSpec("seed = \"nine\"\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("seed = -3\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("duplicate_rate = abc\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("name = \"unterminated\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("name = \"a\" trailing\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("just-a-token\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("= 3\n", "x").ok());
  // Out of range or non-finite: a parse error naming the line, not a
  // saturated seed or a rate every range check in Validate waves through.
  for (const char* text : {"seed = 99999999999999999999999\n",
                           "duplicate_rate = nan\n",
                           "duplicate_rate = inf\n"}) {
    Result<ScenarioSpec> spec = ParseScenarioSpec(text, "x");
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(spec.status().message().find("spec line 1"), std::string::npos)
        << spec.status();
  }
}

TEST(ScenarioSpecTest, ValidationRejectsBadRanges) {
  EXPECT_FALSE(ParseScenarioSpec("workload = \"oops\"\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("duplicate_rate = 1.5\n", "x").ok());
  EXPECT_FALSE(ParseScenarioSpec("master_rows = 0\n", "x").ok());
  EXPECT_FALSE(
      ParseScenarioSpec("[popularity]\nkind = \"zipf\"\nalpha = 0\n", "x")
          .ok());
  EXPECT_FALSE(
      ParseScenarioSpec("[arrival]\nburst_min = 4\nburst_max = 2\n", "x")
          .ok());
  EXPECT_FALSE(
      ParseScenarioSpec("[errors]\ntuple_error_rate = 2.0\n", "x").ok());
  // A spec with no name at all (empty default) must be rejected.
  EXPECT_FALSE(ParseScenarioSpec("workload = \"hosp\"\n", "").ok());
}

// ---------------------------------------------------------------------------
// Popularity models.

TEST(PopularityModelTest, ZipfSkewsTowardLowIndices) {
  PopularityOptions opts;
  opts.kind = PopularityKind::kZipf;
  opts.alpha = 1.5;
  PopularityModel model(opts);
  Rng rng(7);
  size_t low = 0;
  const size_t kTrials = 4000;
  for (size_t i = 0; i < kTrials; ++i) {
    size_t pick = model.Pick(1000, i, &rng);
    ASSERT_LT(pick, 1000u);
    if (pick < 100) ++low;
  }
  // Under uniform, the first decile gets ~10%. The dyadic power law puts
  // roughly p^log2(10) there with p = (1+alpha)/(2+alpha) — about 33% at
  // alpha 1.5. Requiring > 20% leaves sampling headroom while still
  // rejecting a uniform regression by a wide margin.
  EXPECT_GT(low, kTrials / 5);
}

TEST(PopularityModelTest, HotSetStaysInWindowAtRateOne) {
  PopularityOptions opts;
  opts.kind = PopularityKind::kHotSet;
  opts.hot_fraction = 0.1;
  opts.hot_rate = 1.0;
  opts.shift_every = 0;
  PopularityModel model(opts);
  Rng rng(7);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_LT(model.Pick(100, i, &rng), 10u);
  }
}

TEST(PopularityModelTest, HotSetRotatesWithStep) {
  PopularityOptions opts;
  opts.kind = PopularityKind::kHotSet;
  opts.hot_fraction = 0.1;
  opts.hot_rate = 1.0;
  opts.shift_every = 10;
  PopularityModel model(opts);
  Rng rng(7);
  // Steps 10..19 use the second window [10, 20).
  for (size_t i = 10; i < 20; ++i) {
    size_t pick = model.Pick(100, i, &rng);
    EXPECT_GE(pick, 10u);
    EXPECT_LT(pick, 20u);
  }
}

// ---------------------------------------------------------------------------
// Arrival models.

TEST(ArrivalModelTest, SteadyRespectsZeroWeights) {
  ArrivalOptions opts;
  opts.kind = ArrivalKind::kSteady;
  opts.insert_weight = 1.0;
  opts.update_weight = 0.0;
  opts.delete_weight = 0.0;
  ArrivalModel model(opts);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(model.Next(&rng), OpClass::kInsert);
  }
}

TEST(ArrivalModelTest, MasterRatioOneYieldsOnlyMasterOps) {
  ArrivalOptions opts;
  opts.master_ratio = 1.0;
  ArrivalModel model(opts);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    OpClass op = model.Next(&rng);
    EXPECT_TRUE(op == OpClass::kMasterInsert || op == OpClass::kMasterUpdate ||
                op == OpClass::kMasterDelete);
  }
}

TEST(ArrivalModelTest, BurstyEmitsRunsWithinBounds) {
  ArrivalOptions opts;
  opts.kind = ArrivalKind::kBursty;
  opts.burst_min = 3;
  opts.burst_max = 6;
  ArrivalModel model(opts);
  Rng rng(11);
  // Collect run lengths over a long sequence; every maximal run of one
  // class must be a concatenation of bursts, so runs are >= burst_min.
  std::vector<size_t> runs;
  OpClass prev = model.Next(&rng);
  size_t len = 1;
  for (int i = 0; i < 2000; ++i) {
    OpClass op = model.Next(&rng);
    if (op == prev) {
      ++len;
    } else {
      runs.push_back(len);
      prev = op;
      len = 1;
    }
  }
  ASSERT_FALSE(runs.empty());
  for (size_t r : runs) EXPECT_GE(r, opts.burst_min);
}

// ---------------------------------------------------------------------------
// Error model.

TEST(ErrorModelTest, ProtectedAttrsAreNeverCorrupted) {
  SchemaPtr schema = Schema::Make("R", {"a", "b", "c", "d"});
  ErrorModelOptions opts;
  opts.tuple_error_rate = 1.0;
  opts.cluster_len = 4;
  opts.protected_attrs.Add(0);
  opts.protected_attrs.Add(2);
  ErrorModel model(opts, 5);
  for (int i = 0; i < 200; ++i) {
    Tuple t(schema, {Value::Str("aa"), Value::Str("bb"), Value::Str("cc"),
                     Value::Str("dd")});
    AttrSet corrupted = model.CorruptTuple(&t);
    EXPECT_FALSE(corrupted.Contains(0));
    EXPECT_FALSE(corrupted.Contains(2));
    EXPECT_EQ(t.at(0), Value::Str("aa"));
    EXPECT_EQ(t.at(2), Value::Str("cc"));
  }
}

TEST(ErrorModelTest, ClusterCorruptionIsContiguous) {
  SchemaPtr schema = Schema::Make("R", {"a", "b", "c", "d", "e", "f"});
  ErrorModelOptions opts;
  opts.tuple_error_rate = 1.0;
  opts.cluster_len = 2;
  // Nulls only, so every picked attribute visibly changes.
  opts.typo_weight = 0;
  opts.null_weight = 1;
  opts.transpose_weight = 0;
  opts.swap_weight = 0;
  opts.hostile_weight = 0;
  ErrorModel model(opts, 5);
  for (int i = 0; i < 100; ++i) {
    Tuple t(schema, {Value::Str("v0"), Value::Str("v1"), Value::Str("v2"),
                     Value::Str("v3"), Value::Str("v4"), Value::Str("v5")});
    AttrSet corrupted = model.CorruptTuple(&t);
    std::vector<AttrId> attrs = corrupted.ToVector();
    ASSERT_EQ(attrs.size(), 2u);
    // Contiguous modulo wrap-around over 6 attributes.
    size_t gap = attrs[1] - attrs[0];
    EXPECT_TRUE(gap == 1 || gap == 5) << "attrs " << attrs[0] << "," << attrs[1];
  }
}

TEST(ErrorModelTest, HostileValuesRoundTripThroughCsv) {
  ErrorModelOptions opts;
  ErrorModel model(opts, 5);
  for (int i = 0; i < 300; ++i) {
    Value bad = model.CorruptValue(Value::Str("plain"), DataType::kString,
                                   ErrorKind::kHostile);
    ASSERT_TRUE(bad.is_string());
    std::string line = FormatCsvLine({bad.as_string()});
    std::istringstream in(line + "\n");
    CsvRecordReader reader(in);
    std::vector<std::string> fields;
    Result<bool> got = reader.Next(&fields);
    ASSERT_TRUE(got.ok()) << got.status() << " for " << line;
    ASSERT_TRUE(*got) << line;
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], bad.as_string());
  }
}

TEST(ErrorModelTest, BurstContinueExtendsDirtyRuns) {
  ErrorModelOptions opts;
  opts.tuple_error_rate = 0.05;
  opts.burst_continue = 0.95;
  ErrorModel model(opts, 5);
  // With a high continuation probability, dirty tuples must arrive in
  // runs: count dirty-after-dirty transitions vs dirty-after-clean.
  size_t dirty_after_dirty = 0, dirty = 0, total = 20000;
  bool prev = false;
  for (size_t i = 0; i < total; ++i) {
    bool d = model.NextTupleDirty();
    if (d) {
      ++dirty;
      if (prev) ++dirty_after_dirty;
    }
    prev = d;
  }
  ASSERT_GT(dirty, 0u);
  // P(dirty | prev dirty) ~ 0.95 vs marginal ~0.5; require a wide margin.
  EXPECT_GT(static_cast<double>(dirty_after_dirty) /
                static_cast<double>(dirty),
            0.6);
}

// ---------------------------------------------------------------------------
// Generation + determinism.

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(rel, out).ok());
  return out.str();
}

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.name = "unit";
  spec.workload = "hosp";
  spec.seed = 77;
  spec.master_rows = 40;
  spec.initial_rows = 15;
  spec.num_deltas = 120;
  spec.arrival.master_ratio = 0.15;
  spec.errors.tuple_error_rate = 0.3;
  spec.errors.cluster_len = 3;
  spec.errors.hostile_weight = 0.15;
  spec.master_noise_rate = 0.1;
  return spec;
}

TEST(ScenarioGenTest, SameSpecSameBytes) {
  ScenarioSpec spec = SmallSpec();
  Result<Scenario> a = GenerateScenario(spec);
  Result<Scenario> b = GenerateScenario(spec);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(CsvBytes(a->master), CsvBytes(b->master));
  EXPECT_EQ(CsvBytes(a->initial), CsvBytes(b->initial));
  EXPECT_EQ(DeltaLogToString(*a), DeltaLogToString(*b));
}

TEST(ScenarioGenTest, DifferentSeedsDifferentBytes) {
  ScenarioSpec spec = SmallSpec();
  Result<Scenario> a = GenerateScenario(spec);
  spec.seed = 78;
  Result<Scenario> b = GenerateScenario(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(DeltaLogToString(*a), DeltaLogToString(*b));
}

TEST(ScenarioGenTest, TrustedCellsStayCleanInInitialRows) {
  // The certain-fix premise: t[Z] is correct at entry. The generator must
  // never corrupt trusted cells, so every initial row's trusted values
  // must be parseable non-hostile workload values (no nulls).
  Result<Scenario> sc = GenerateScenario(SmallSpec());
  ASSERT_TRUE(sc.ok()) << sc.status();
  std::vector<AttrId> trusted = sc->trusted.ToVector();
  for (size_t i = 0; i < sc->initial.size(); ++i) {
    for (AttrId a : trusted) {
      EXPECT_FALSE(sc->initial.Cell(i, a).is_null())
          << "null trusted cell at row " << i;
    }
  }
}

TEST(ScenarioGenTest, DeltaLogParsesBackExactly) {
  Result<Scenario> sc = GenerateScenario(SmallSpec());
  ASSERT_TRUE(sc.ok()) << sc.status();
  std::istringstream in(DeltaLogToString(*sc));
  DeltaLogSource source(sc->schema, sc->schema, in);
  Delta d;
  size_t count = 0;
  for (;;) {
    Result<bool> got = source.Next(&d);
    ASSERT_TRUE(got.ok()) << got.status();
    if (!*got) break;
    ASSERT_LT(count, sc->deltas.size());
    const Delta& want = sc->deltas[count];
    EXPECT_EQ(d.kind, want.kind) << "delta " << count;
    EXPECT_EQ(d.row, want.row) << "delta " << count;
    EXPECT_EQ(d.fields, want.fields) << "delta " << count;
    ++count;
  }
  EXPECT_EQ(count, sc->deltas.size());
}

TEST(ScenarioGenTest, ReplayMatchesGeneratorMirror) {
  // ApplyDeltaLog over (initial, master) must never go out of range on a
  // generated log — the generator maintained the same positional mirror.
  Result<Scenario> sc = GenerateScenario(SmallSpec());
  ASSERT_TRUE(sc.ok()) << sc.status();
  std::vector<std::vector<std::string>> input = RenderRows(sc->initial);
  std::vector<std::vector<std::string>> master = RenderRows(sc->master);
  Status st = ApplyDeltaLog(sc->deltas, &input, &master);
  ASSERT_TRUE(st.ok()) << st;
  // Master never drops below the generator's floor.
  EXPECT_GE(master.size(), 8u);
  // Rebuilding relations from replayed rows must type-check.
  EXPECT_TRUE(RelationFromRows(sc->schema, input).ok());
  EXPECT_TRUE(RelationFromRows(sc->schema, master).ok());
}

TEST(ScenarioGenTest, ApplyDeltaLogRejectsOutOfRange) {
  std::vector<Delta> deltas(1);
  deltas[0].kind = DeltaKind::kDelete;
  deltas[0].row = 3;
  std::vector<std::vector<std::string>> input = {{"a"}, {"b"}};
  std::vector<std::vector<std::string>> master;
  Status st = ApplyDeltaLog(deltas, &input, &master);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(ScenarioGenTest, DblpWorkloadGenerates) {
  ScenarioSpec spec = SmallSpec();
  spec.workload = "dblp";
  Result<Scenario> sc = GenerateScenario(spec);
  ASSERT_TRUE(sc.ok()) << sc.status();
  EXPECT_EQ(sc->schema->name(), DblpWorkload::MakeSchema()->name());
  EXPECT_EQ(sc->master.size(), spec.master_rows);
  EXPECT_EQ(sc->initial.size(), spec.initial_rows);
  EXPECT_EQ(sc->deltas.size(), spec.num_deltas);
}

}  // namespace
}  // namespace certfix
