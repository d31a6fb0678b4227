/// \file test_util.h
/// \brief Shared fixtures: the paper's running supplier example (Fig. 1,
/// Examples 1-15) and small helpers used across the test suite.

#ifndef CERTFIX_TESTS_TEST_UTIL_H_
#define CERTFIX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cassert>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "rules/rule_parser.h"
#include "rules/rule_set.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace testing_fixtures {

/// The supplier schema R of Fig. 1a.
inline SchemaPtr SupplierSchema() {
  return Schema::Make("Supplier",
                      std::vector<std::string>{"fn", "ln", "AC", "phn",
                                               "type", "str", "city", "zip",
                                               "item"});
}

/// The master schema Rm of Fig. 1b.
inline SchemaPtr SupplierMasterSchema() {
  return Schema::Make("Master",
                      std::vector<std::string>{"FN", "LN", "AC", "Hphn",
                                               "Mphn", "str", "city", "zip",
                                               "DOB", "gender"});
}

/// The master relation Dm of Fig. 1b (s1, s2).
inline Relation SupplierMaster(const SchemaPtr& rm) {
  Relation dm(rm);
  Status st = dm.AppendStrings({"Robert", "Brady", "131", "6884563",
                                "079172485", "51 Elm Row", "Edi",
                                "EH7 4AH", "11/11/55", "M"});
  assert(st.ok());
  st = dm.AppendStrings({"Mark", "Smith", "020", "6884563", "075568485",
                         "20 Baker St.", "Lnd", "NW1 6XE", "25/12/67",
                         "M"});
  assert(st.ok());
  (void)st;
  return dm;
}

/// Sigma0 = {phi1..phi9} of Example 11.
inline RuleSet SupplierRules(const SchemaPtr& r, const SchemaPtr& rm) {
  const char* text = R"(
    rule phi1: (zip | zip) -> (AC | AC)
    rule phi2: (zip | zip) -> (str | str)
    rule phi3: (zip | zip) -> (city | city)
    rule phi4: (phn | Mphn) -> (fn | FN) when type=2
    rule phi5: (phn | Mphn) -> (ln | LN) when type=2
    rule phi6: (AC, phn | AC, Hphn) -> (str | str) when type=1, AC!=0800
    rule phi7: (AC, phn | AC, Hphn) -> (city | city) when type=1, AC!=0800
    rule phi8: (AC, phn | AC, Hphn) -> (zip | zip) when type=1, AC!=0800
    rule phi9: (AC | AC) -> (city | city) when AC=0800
  )";
  Result<RuleSet> rules = ParseRules(text, r, rm);
  assert(rules.ok());
  return std::move(rules).ValueOrDie();
}

/// Input tuples t1..t4 of Fig. 1a. t2's missing str/zip are nulls.
inline Tuple T1(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Bob", "Brady", "020", "079172485", "2", "501 Elm St.", "Edi",
          "EH7 4AH", "CDs"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
inline Tuple T1Truth(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Robert", "Brady", "131", "079172485", "2", "51 Elm Row", "Edi",
          "EH7 4AH", "CDs"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
inline Tuple T2(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Mark", "Smith", "020", "6884563", "1", "", "Edi", "", "Books"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
/// t3: AC and zip inconsistent (AC 020 belongs to s2, zip EH7 4AH to s1).
inline Tuple T3(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Mark", "Smith", "020", "6884563", "1", "20 Baker St.", "Lnd",
          "EH7 4AH", "DVDs"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}
/// t4: no rule/master combination applies.
inline Tuple T4(const SchemaPtr& r) {
  Result<Tuple> t = Tuple::FromStrings(
      r, {"Eva", "Jones", "0131", "9999999", "1", "5 Oak Ln", "Gla",
          "G1 1AA", "Pens"});
  assert(t.ok());
  return std::move(t).ValueOrDie();
}

/// AttrSet from attribute names.
inline AttrSet Attrs(const SchemaPtr& schema,
                     const std::vector<std::string>& names) {
  AttrSet s;
  for (const auto& n : names) {
    Result<AttrId> id = schema->IndexOf(n);
    assert(id.ok());
    s.Add(*id);
  }
  return s;
}

/// Attr id by name (asserting existence).
inline AttrId A(const SchemaPtr& schema, const std::string& name) {
  Result<AttrId> id = schema->IndexOf(name);
  assert(id.ok());
  return *id;
}

/// A generated dirty HOSP batch: the trusted keys {id, mCode} are
/// protected, every other attribute is noisy.
struct HospDirtyBatch {
  SchemaPtr schema;
  RuleSet rules;
  AttrSet trusted;
  Relation master;
  std::vector<DirtyPair> pairs;  ///< row i of `dirty` is pairs[i].dirty
  Relation dirty;
};

/// The batches the at-scale differential tests repair at every shard
/// count: a mix of fixable and untouchable rows at an odd row count
/// (|Dm| = 300, 101 rows), then the paper's defaults (d% = 30, n% = 20)
/// at |Dm| = |D| = 2,000.
inline std::vector<HospDirtyBatch> AtScaleHospBatches() {
  struct Shape {
    size_t master_rows;
    uint64_t master_seed;
    size_t non_master_rows;
    uint64_t non_master_seed;
    uint64_t non_master_offset;
    double duplicate_rate;
    double noise_rate;
    uint64_t gen_seed;
    size_t rows;
  };
  std::vector<HospDirtyBatch> batches;
  for (const Shape& shape :
       {Shape{300, 9, 150, 77, 500000, 0.6, 0.4, 31, 101},
        Shape{2000, 42, 1000, 1309, 1000000, 0.3, 0.2, 17, 2000}}) {
    HospDirtyBatch b;
    b.schema = HospWorkload::MakeSchema();
    b.rules = HospWorkload::MakeRules(b.schema);
    b.trusted.Add(*b.schema->IndexOf("id"));
    b.trusted.Add(*b.schema->IndexOf("mCode"));
    Rng rng(shape.master_seed);
    b.master = HospWorkload::MakeMaster(b.schema, shape.master_rows, &rng);
    Rng rng2(shape.non_master_seed);
    Relation non_master = HospWorkload::MakeMaster(
        b.schema, shape.non_master_rows, &rng2, shape.non_master_offset);
    DirtyGenOptions options;
    options.duplicate_rate = shape.duplicate_rate;
    options.noise_rate = shape.noise_rate;
    options.protected_attrs = b.trusted;
    options.seed = shape.gen_seed;
    b.pairs = DirtyGenerator(b.master, non_master, options).Generate(
        shape.rows);
    b.dirty = Relation(b.schema);
    for (const DirtyPair& pair : b.pairs) {
      Status st = b.dirty.Append(pair.dirty);
      EXPECT_TRUE(st.ok()) << st;
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

/// The CERTFIX_PROPERTY_SEED environment value, or `fallback` when it is
/// unset. The randomized property tests seed from it, so a CI soak leg
/// that sets it walks fresh instances, and a failure reproduces by
/// setting it again.
inline uint64_t PropertySeed(uint64_t fallback) {
  const char* env = std::getenv("CERTFIX_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

/// Seed of a test binary's next randomized case: PropertySeed(default_seed)
/// shifted by 1009 per call, so every --gtest_repeat iteration soaks fresh
/// seeds while a single run stays reproducible.
inline uint64_t NextPropertySeed(uint64_t default_seed) {
  static uint64_t iteration = 0;
  return PropertySeed(default_seed) + 1009 * iteration++;
}

/// Caps the size of every file the process writes at `limit` bytes, with
/// SIGXFSZ ignored: a write crossing the cap is cut short at it and the
/// next one fails with EFBIG ("File too large"), a disk-full stand-in.
/// The destructor restores the old limit and handler, so an assertion
/// failing under the cap cannot leak it into later tests.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t limit)
      : old_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    if (::getrlimit(RLIMIT_FSIZE, &old_limit_) != 0) return;
    rlimit capped = old_limit_;
    capped.rlim_cur = static_cast<rlim_t>(limit);
    ok_ = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    if (ok_) ::setrlimit(RLIMIT_FSIZE, &old_limit_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

  bool ok() const { return ok_; }

 private:
  void (*old_handler_)(int);
  rlimit old_limit_{};
  bool ok_ = false;
};

}  // namespace testing_fixtures
}  // namespace certfix

#endif  // CERTFIX_TESTS_TEST_UTIL_H_
