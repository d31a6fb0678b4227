/// \file rule_dsl_fuzz_test.cc
/// \brief Fuzz-style hardening of the rule DSL parser (rules/rule_parser.h)
/// in the style of delta_log_fuzz_test: seeded truncation and mutation of
/// well-formed rule files must never crash, and every input must either
/// parse or fail with a clean ParseError tagged with its line. Every
/// ruleset that parses must round-trip RulesToDsl -> ParseRules
/// byte-identically, because the durable session persists rulesets that
/// way (incremental/durable_session.h).

#include "rules/rule_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/random.h"

namespace certfix {
namespace {

// R and Rm name their attributes differently, and both carry int and
// double columns, so pattern constants parse per type.
SchemaPtr R() {
  static const SchemaPtr kR = Schema::Make(
      "R", std::vector<Attribute>{{"zip", DataType::kString},
                                  {"AC", DataType::kString},
                                  {"qty", DataType::kInt},
                                  {"price", DataType::kDouble},
                                  {"city", DataType::kString},
                                  {"name", DataType::kString}});
  return kR;
}

SchemaPtr Rm() {
  static const SchemaPtr kRm = Schema::Make(
      "Rm", std::vector<Attribute>{{"mzip", DataType::kString},
                                   {"mAC", DataType::kString},
                                   {"mqty", DataType::kInt},
                                   {"mprice", DataType::kDouble},
                                   {"mcity", DataType::kString},
                                   {"mname", DataType::kString}});
  return kRm;
}

/// Parses `text`; on success checks the round trip, on failure checks the
/// error is a ParseError naming its line. Returns whether it parsed.
bool ParseAndCheck(const std::string& text, const std::string& label) {
  Result<RuleSet> rules = ParseRules(text, R(), Rm());
  if (!rules.ok()) {
    EXPECT_EQ(rules.status().code(), StatusCode::kParseError)
        << rules.status() << " (" << label << ")";
    EXPECT_EQ(rules.status().message().rfind("line ", 0), 0u)
        << "error lost its line tag: " << rules.status() << " (" << label
        << ")";
    return false;
  }
  const std::string dsl = RulesToDsl(*rules);
  Result<RuleSet> again = ParseRules(dsl, R(), Rm());
  EXPECT_TRUE(again.ok()) << again.status() << " re-parsing\n"
                          << dsl << "(" << label << ")";
  if (!again.ok()) return true;
  EXPECT_EQ(again->size(), rules->size()) << label;
  EXPECT_EQ(RulesToDsl(*again), dsl) << label;
  return true;
}

// Well-formed rule files: both sides of every list, groups, comments,
// blank lines, CRLF, every pattern-cell form, and constants with commas,
// quotes, spaces, signs and exponents.
const char* kCorpus[] = {
    "rule r1: (zip | mzip) -> (AC | mAC)\n",
    "# comment\n\nrule g*: (zip | mzip) -> (AC, city | mAC, mcity) "
    "when zip!=\"\"\n",
    "rule r3: (AC, zip | mAC, mzip) -> (city | mcity) "
    "when qty=3, price!=1.5, name=_\r\n"
    "rule r4: (name | mname) -> (qty | mqty) when city=\"a,b\", AC=\" x \"\n",
    "rule r5: (qty | mqty) -> (price | mprice) when qty!=-7, price=2e-3\n"
    "rule r6: (price | mprice) -> (name | mname) when name=x\"\"y, AC!=_\n",
    "  rule  spaced  :  ( zip ,AC|mzip, mAC )->( name|mname )  \n",
    "rule a->b: (city | mcity) -> (zip | mzip) when zip=\"\", qty=\n",
};

TEST(RuleDslFuzzTest, CorpusParsesAndRoundTrips) {
  for (const char* text : kCorpus) {
    EXPECT_TRUE(ParseAndCheck(text, text)) << text;
  }
}

TEST(RuleDslFuzzTest, TruncationsNeverCrash) {
  for (const char* base : kCorpus) {
    const std::string s(base);
    for (size_t cut = 0; cut <= s.size(); ++cut) {
      ParseAndCheck(s.substr(0, cut),
                    "truncate@" + std::to_string(cut) + " of " + base);
    }
  }
}

TEST(RuleDslFuzzTest, SeededMutationsNeverCrash) {
  // The grammar's own punctuation, plus whitespace, NUL and line breaks.
  const char kBytes[] = {'(', ')', '|', ',', '-', '>', ':', '*', '=',
                         '!', '"', '_', ' ', '\n', '\r', '#', 'a', '0',
                         '\0', '.', 'e'};
  // Whole tokens, so mutations also build inputs that parse: attribute
  // names of both schemas, keywords, operators.
  const char* kTokens[] = {"zip",  "mzip", "AC",    "mAC",   "qty",
                           "mqty", "city", "mcity", "rule ", " when ",
                           "->",   "!=",   "=_",    "*",     ", "};
  Rng rng(4242);
  size_t parsed = 0;
  constexpr int kIters = 6000;
  for (int iter = 0; iter < kIters; ++iter) {
    std::string s(kCorpus[rng.Index(std::size(kCorpus))]);
    const int edits = 1 + static_cast<int>(rng.Index(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Index(s.size() + 1);
      switch (rng.Index(4)) {
        case 0:  // flip
          if (pos < s.size()) s[pos] = kBytes[rng.Index(std::size(kBytes))];
          break;
        case 1:  // insert a byte
          s.insert(pos, 1, kBytes[rng.Index(std::size(kBytes))]);
          break;
        case 2:  // insert a token
          s.insert(pos, kTokens[rng.Index(std::size(kTokens))]);
          break;
        default:  // delete a run
          if (pos < s.size()) s.erase(pos, 1 + rng.Index(3));
          break;
      }
    }
    if (ParseAndCheck(s, "iter=" + std::to_string(iter) + ": " + s)) {
      ++parsed;
    }
  }
  // The round-trip property is only as strong as the number of mutants
  // that parse.
  EXPECT_GT(parsed, kIters / 20u);
}

}  // namespace
}  // namespace certfix
