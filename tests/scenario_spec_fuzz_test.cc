/// \file scenario_spec_fuzz_test.cc
/// \brief Fuzz-style hardening of the scenario spec parser
/// (workload/scenario.h, a TOML subset) in the style of
/// delta_log_fuzz_test: seeded truncation and mutation of the checked-in
/// corpus specs must never crash, and every input must either parse into
/// a valid spec or fail cleanly — a ParseError tagged with its spec line
/// for malformed text, or InvalidArgument for a well-formed spec whose
/// values are out of range (ScenarioSpec::Validate).

#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/random.h"

namespace certfix {
namespace {

/// The checked-in corpus specs (CERTFIX_SCENARIO_DIR), sorted by path.
std::vector<std::string> CorpusTexts() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CERTFIX_SCENARIO_DIR)) {
    if (entry.path().extension() == ".toml") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    texts.push_back(bytes.str());
  }
  return texts;
}

/// Parses `text`; checks the verdict is a valid spec or a clean error.
/// Returns whether it parsed.
bool ParseAndCheck(const std::string& text, const std::string& label) {
  Result<ScenarioSpec> spec = ParseScenarioSpec(text, "fuzz");
  if (spec.ok()) {
    EXPECT_TRUE(spec->Validate().ok()) << label;
    EXPECT_FALSE(spec->name.empty()) << label;
    return true;
  }
  const StatusCode code = spec.status().code();
  EXPECT_TRUE(code == StatusCode::kParseError ||
              code == StatusCode::kInvalidArgument)
      << spec.status() << " (" << label << ")";
  if (code == StatusCode::kParseError) {
    EXPECT_EQ(spec.status().message().rfind("spec line ", 0), 0u)
        << "error lost its line tag: " << spec.status() << " (" << label
        << ")";
  }
  return false;
}

TEST(ScenarioSpecFuzzTest, CorpusParses) {
  const std::vector<std::string> corpus = CorpusTexts();
  ASSERT_FALSE(corpus.empty());
  for (const std::string& text : corpus) {
    EXPECT_TRUE(ParseAndCheck(text, text));
  }
}

TEST(ScenarioSpecFuzzTest, TruncationsNeverCrash) {
  for (const std::string& s : CorpusTexts()) {
    for (size_t cut = 0; cut <= s.size(); ++cut) {
      ParseAndCheck(s.substr(0, cut), "truncate@" + std::to_string(cut) +
                                          " of\n" + s);
    }
  }
}

TEST(ScenarioSpecFuzzTest, SeededMutationsNeverCrash) {
  // The TOML subset's punctuation, number syntax, whitespace and NUL.
  const char kBytes[] = {'[', ']', '=', '"', '#', '.', '-', '+', 'e',
                         '0', '9', ' ', '\n', '\r', '\0', '_', 'x'};
  // Whole tokens: section headers, keys, and values of every type.
  const char* kTokens[] = {"[popularity]\n", "[arrival]\n", "[errors]\n",
                           "kind = ",        "seed = ",     "alpha = ",
                           "master_rows = ", "\"zipf\"",    "\"bursty\"",
                           "1e308",          "nan",         "-1",
                           "18446744073709551616",          "0.5"};
  const std::vector<std::string> corpus = CorpusTexts();
  ASSERT_FALSE(corpus.empty());
  Rng rng(90210);
  size_t parsed = 0;
  constexpr int kIters = 6000;
  for (int iter = 0; iter < kIters; ++iter) {
    std::string s = corpus[rng.Index(corpus.size())];
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
    if (ParseAndCheck(s, "iter=" + std::to_string(iter) + ":\n" + s)) {
      ++parsed;
    }
  }
  // Most single edits land in comments or values that stay valid; the
  // valid-spec check above is only as strong as the number that parse.
  EXPECT_GT(parsed, kIters / 20u);
}

}  // namespace
}  // namespace certfix
