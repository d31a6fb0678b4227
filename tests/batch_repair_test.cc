#include "core/batch_repair.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "reference/naive_repair.h"
#include "relational/csv.h"
#include "test_util.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

std::string ToCsv(const Relation& rel) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(rel, out).ok());
  return out.str();
}

class BatchRepairSupplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
    index_ = std::make_unique<MasterIndex>(rules_, dm_);
    sat_ = std::make_unique<Saturator>(rules_, dm_, *index_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
};

TEST_F(BatchRepairSupplierTest, RepairsTrustedKeyTuples) {
  Relation data(r_);
  ASSERT_TRUE(data.Append(T1(r_)).ok());  // fixable via zip/phn/type
  ASSERT_TRUE(data.Append(T4(r_)).ok());  // untouchable (no master match)

  BatchRepair repair(*sat_);
  BatchRepairResult result =
      repair.Repair(data, Attrs(r_, {"zip", "phn", "type", "item"}));
  EXPECT_EQ(result.fully_covered, 1u);
  EXPECT_EQ(result.untouched, 1u);
  EXPECT_EQ(result.conflicting, 0u);
  EXPECT_EQ(result.repaired.at(0), T1Truth(r_));
  EXPECT_EQ(result.repaired.at(1), T4(r_));
  EXPECT_EQ(result.cells_changed, 3u);  // fn, AC, str of t1
}

TEST_F(BatchRepairSupplierTest, ConflictingTupleLeftAlone) {
  Relation data(r_);
  ASSERT_TRUE(data.Append(T3(r_)).ok());  // AC/zip conflict (Example 5)
  BatchRepair repair(*sat_);
  BatchRepairResult result =
      repair.Repair(data, Attrs(r_, {"AC", "phn", "type", "zip"}));
  EXPECT_EQ(result.conflicting, 1u);
  EXPECT_EQ(result.conflict_rows, std::vector<size_t>{0});
  EXPECT_EQ(result.repaired.at(0), T3(r_));
  EXPECT_EQ(result.cells_changed, 0u);
}

TEST_F(BatchRepairSupplierTest, PartialCoverageCounted) {
  Relation data(r_);
  ASSERT_TRUE(data.Append(T1(r_)).ok());
  BatchRepair repair(*sat_);
  // Only zip trusted: AC/str/city get fixed, fn/ln/phn/type/item do not.
  BatchRepairResult result = repair.Repair(data, Attrs(r_, {"zip"}));
  EXPECT_EQ(result.partial, 1u);
  EXPECT_EQ(result.repaired.at(0).at(A(r_, "AC")).as_string(), "131");
  EXPECT_EQ(result.repaired.at(0).at(A(r_, "fn")).as_string(), "Bob");
}

TEST_F(BatchRepairSupplierTest, RefusesRelationOfAnotherSchema) {
  // Two columns where the rules read nine: repairing would read past the
  // end of every row's cells.
  SchemaPtr narrow =
      Schema::Make("Narrow", std::vector<std::string>{"zip", "AC"});
  Relation data(narrow);
  ASSERT_TRUE(data.AppendStrings({"EH7 4AH", "020"}).ok());
  for (size_t threads : {1u, 4u}) {
    RepairOptions options;
    options.num_threads = threads;
    BatchRepair repair(*sat_, options);
    EXPECT_THROW(repair.Repair(data, AttrSet{0}), std::invalid_argument);
  }

  // A structurally equal copy of R (another schema object) is R.
  SchemaPtr r_copy = SupplierSchema();
  Relation copy(r_copy);
  ASSERT_TRUE(copy.Append(T1(r_copy)).ok());
  BatchRepairResult repaired = BatchRepair(*sat_).Repair(
      copy, Attrs(r_, {"zip", "phn", "type", "item"}));
  EXPECT_EQ(repaired.fully_covered, 1u);
}

TEST(BatchRepairHospTest, RestoresDuplicatesAtScale) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(9);
  Relation master = HospWorkload::MakeMaster(schema, 400, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);

  // Corrupt everything except the trusted keys on 100 master-drawn rows.
  AttrSet trusted;
  trusted.Add(*schema->IndexOf("id"));
  trusted.Add(*schema->IndexOf("mCode"));
  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 1.0;
  gen_options.noise_rate = 0.4;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 12;
  DirtyGenerator gen(master, master, gen_options);

  Relation dirty(schema);
  std::vector<Tuple> truths;
  for (const DirtyPair& pair : gen.Generate(100)) {
    ASSERT_TRUE(dirty.Append(pair.dirty).ok());
    truths.push_back(pair.clean);
  }

  BatchRepair repair(sat);
  BatchRepairResult result = repair.Repair(dirty, trusted);
  EXPECT_EQ(result.conflicting, 0u);
  EXPECT_EQ(result.fully_covered, 100u);
  for (size_t i = 0; i < truths.size(); ++i) {
    EXPECT_EQ(result.repaired.at(i), truths[i]) << "row " << i;
  }
}

// --- Differential tests: the engine must be bit-identical at every
// shard count to its num_threads == 1 run on the calling thread. ---

void ExpectSameRepair(const BatchRepairResult& expected,
                      const BatchRepairResult& actual,
                      const std::string& label) {
  EXPECT_EQ(actual.fully_covered, expected.fully_covered)
      << label;
  EXPECT_EQ(actual.partial, expected.partial) << label;
  EXPECT_EQ(actual.untouched, expected.untouched) << label;
  EXPECT_EQ(actual.conflicting, expected.conflicting) << label;
  EXPECT_EQ(actual.cells_changed, expected.cells_changed) << label;
  EXPECT_EQ(actual.conflict_rows, expected.conflict_rows) << label;
  ASSERT_EQ(actual.repaired.size(), expected.repaired.size()) << label;
  for (size_t i = 0; i < expected.repaired.size(); ++i) {
    EXPECT_EQ(actual.repaired.at(i), expected.repaired.at(i))
        << label << " row " << i;
  }
}

TEST_F(BatchRepairSupplierTest, ParallelMatchesSequentialWithConflicts) {
  // 25 rows (odd, not divisible by any tested thread count) cycling
  // through fixable / conflicting / untouchable tuples, so every counter
  // and the conflict_rows order are exercised across shard boundaries.
  Relation data(r_);
  for (size_t i = 0; i < 25; ++i) {
    switch (i % 3) {
      case 0:
        ASSERT_TRUE(data.Append(T1(r_)).ok());
        break;
      case 1:
        ASSERT_TRUE(data.Append(T3(r_)).ok());
        break;
      default:
        ASSERT_TRUE(data.Append(T4(r_)).ok());
        break;
    }
  }
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  BatchRepairResult sequential = BatchRepair(*sat_).Repair(data, trusted);
  EXPECT_GT(sequential.conflicting, 0u);
  for (size_t shards : {1, 2, 3, 8}) {
    RepairOptions options;
    options.num_threads = shards;
    BatchRepairResult parallel =
        BatchRepair(*sat_, options).Repair(data, trusted);
    ExpectSameRepair(sequential, parallel,
                     "shards=" + std::to_string(shards));
  }
}

TEST_F(BatchRepairSupplierTest, MoreThreadsThanRows) {
  Relation data(r_);
  ASSERT_TRUE(data.Append(T1(r_)).ok());
  ASSERT_TRUE(data.Append(T3(r_)).ok());
  ASSERT_TRUE(data.Append(T4(r_)).ok());
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  BatchRepairResult sequential = BatchRepair(*sat_).Repair(data, trusted);
  RepairOptions options;
  options.num_threads = 8;
  BatchRepairResult parallel =
      BatchRepair(*sat_, options).Repair(data, trusted);
  ExpectSameRepair(sequential, parallel, "3 rows, 8 threads");
}

TEST(BatchRepairHospTest, ParallelMatchesSequentialAtScale) {
  for (const HospDirtyBatch& b : AtScaleHospBatches()) {
    const std::string label = std::to_string(b.dirty.size()) + " rows";
    MasterIndex index(b.rules, b.master);
    Saturator sat(b.rules, b.master, index);
    BatchRepairResult sequential = BatchRepair(sat).Repair(b.dirty, b.trusted);
    EXPECT_GT(sequential.fully_covered, 0u) << label;
    EXPECT_GT(sequential.cells_changed, 0u) << label;
    // Precision 1: every cell the repair changes gets its clean value.
    for (size_t i = 0; i < b.pairs.size(); ++i) {
      const Tuple& out = sequential.repaired.at(i);
      for (AttrId a : b.pairs[i].dirty.DiffAttrs(out)) {
        EXPECT_EQ(out.at(a), b.pairs[i].clean.at(a))
            << label << " row " << i << " attr " << b.schema->attr_name(a);
      }
    }
    for (size_t threads : {1, 2, 4, 8}) {
      RepairOptions options;
      options.num_threads = threads;
      BatchRepairResult parallel =
          BatchRepair(sat, options).Repair(b.dirty, b.trusted);
      ExpectSameRepair(sequential, parallel,
                       label + " threads=" + std::to_string(threads));
    }
  }
}

TEST(BatchRepairHospTest, MoreRowsThanTheAdmissionWindow) {
  // Each shard ring holds 256 rows, so 3 shards admit 768 at a time:
  // 1001 rows make the submitter wait for the merge to free the window.
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(5);
  Relation master = HospWorkload::MakeMaster(schema, 60, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);

  AttrSet trusted;
  trusted.Add(*schema->IndexOf("id"));
  trusted.Add(*schema->IndexOf("mCode"));
  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 0.7;
  gen_options.noise_rate = 0.4;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 44;
  Rng rng2(45);
  Relation non_master = HospWorkload::MakeMaster(schema, 40, &rng2, 500000);
  DirtyGenerator gen(master, non_master, gen_options);
  Relation dirty(schema);
  for (const DirtyPair& pair : gen.Generate(1001)) {
    ASSERT_TRUE(dirty.Append(pair.dirty).ok());
  }

  RepairOptions options;
  options.num_threads = 3;
  BatchRepairResult result = BatchRepair(sat, options).Repair(dirty, trusted);
  EXPECT_EQ(ToCsv(result.repaired),
            ToCsv(reference::BatchRepair(rules, master, dirty, trusted)));
  EXPECT_GT(result.cells_changed, 0u);
  EXPECT_EQ(result.fully_covered + result.partial +
                result.untouched + result.conflicting,
            dirty.size());
  EXPECT_EQ(result.memo_hits + result.memo_misses, dirty.size());
  ExpectSameRepair(BatchRepair(sat).Repair(dirty, trusted), result,
                   "1001 rows, 3 shards");
}

TEST(BatchRepairHospTest, EmptyRelation) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(9);
  Relation master = HospWorkload::MakeMaster(schema, 50, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);
  BatchRepair repair(sat);
  BatchRepairResult result = repair.Repair(Relation(schema), AttrSet{0});
  EXPECT_EQ(result.cells_changed, 0u);
  EXPECT_TRUE(result.repaired.empty());
}

}  // namespace
}  // namespace certfix
