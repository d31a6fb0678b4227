/// \file columnar_differential_test.cc
/// \brief Differential oracle for the interned columnar storage layer: the
/// naive row-at-a-time reference engine (reference/naive_repair.h — linear
/// master scans, Value comparisons, no ValuePool / ValueId / MasterIndex
/// machinery) and BatchRepair must produce byte-identical output under
/// WriteCsv on the HOSP workload, sequentially and across thread counts.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/batch_repair.h"
#include "reference/naive_repair.h"
#include "relational/csv.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

std::string ToCsvBytes(const Relation& rel) {
  std::ostringstream os;
  Status st = WriteCsv(rel, os);
  EXPECT_TRUE(st.ok());
  return os.str();
}

// --- The differential -----------------------------------------------------

TEST(ColumnarDifferentialTest, BatchRepairMatchesRowReferenceOnHosp) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(123);
  Relation master = HospWorkload::MakeMaster(schema, 200, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);

  AttrSet trusted;
  trusted.Add(*schema->IndexOf("id"));
  trusted.Add(*schema->IndexOf("mCode"));

  // Mixed workload: duplicates (fully repairable), non-duplicates
  // (untouchable), some nulls via the generator's missing-value noise.
  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 0.7;
  gen_options.noise_rate = 0.5;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 97;
  Rng rng2(55);
  Relation non_master = HospWorkload::MakeMaster(schema, 80, &rng2, 700000);
  DirtyGenerator gen(master, non_master, gen_options);

  Relation dirty(schema);
  for (const DirtyPair& pair : gen.Generate(80)) {
    ASSERT_TRUE(dirty.Append(pair.dirty).ok());
  }

  const std::string want =
      ToCsvBytes(reference::BatchRepair(rules, master, dirty, trusted));
  ASSERT_NE(want, ToCsvBytes(dirty)) << "oracle repaired nothing";

  for (size_t threads : {1, 2, 8}) {
    RepairOptions options;
    options.num_threads = threads;
    BatchRepairResult result = BatchRepair(sat, options).Repair(dirty, trusted);
    EXPECT_EQ(ToCsvBytes(result.repaired), want)
        << "threads=" << threads;
  }
}

// Same oracle on the 10-attribute supplier example of the paper, where
// conflicting tuples (Example 5) must be left untouched by both engines.
TEST(ColumnarDifferentialTest, ConflictRowsLeftIdentical) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(7);
  Relation master = HospWorkload::MakeMaster(schema, 120, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);

  AttrSet trusted;
  trusted.Add(*schema->IndexOf("zip"));
  trusted.Add(*schema->IndexOf("phn"));

  // Trusting only geographic keys leaves most attributes underivable and
  // exercises the partial/untouched paths of both engines.
  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 0.5;
  gen_options.noise_rate = 0.6;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 13;
  DirtyGenerator gen(master, master, gen_options);

  Relation dirty(schema);
  for (const DirtyPair& pair : gen.Generate(40)) {
    ASSERT_TRUE(dirty.Append(pair.dirty).ok());
  }

  const std::string want =
      ToCsvBytes(reference::BatchRepair(rules, master, dirty, trusted));
  BatchRepairResult result = BatchRepair(sat).Repair(dirty, trusted);
  EXPECT_EQ(ToCsvBytes(result.repaired), want);
}

}  // namespace
}  // namespace certfix
