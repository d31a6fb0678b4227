/// \file stream_metrics_test.cc
/// \brief The analyze_first inert-engine paths the strict-gate tests in
/// analyze_test.cc leave uncovered: the delta engine's
/// Apply/ApplyAll/Update/Master* mutators, its read-side accessors on a
/// rejected engine, and the stream engine's counters after refused
/// pushes. (The engines' registry views are covered by
/// ordered_pipeline_test.cc.)

#include <gtest/gtest.h>

#include <vector>

#include "incremental/delta_repair.h"
#include "rules/rule_parser.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

// ---------------------------------------------------------------------------
// Inert-engine paths under analyze_first=strict. Fixture mirrors the
// StrictGateTest conflict: two rules target AC from trusted zip/city, and
// the master rows disagree, so strict analysis rejects the ruleset.

class InertEngineTest : public ::testing::Test {
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

TEST_F(InertEngineTest, DeltaEngineRejectsApplyAndApplyAll) {
  DeltaRepairOptions options;
  options.analyze_first = AnalyzeMode::kStrict;
  DeltaRepairEngine engine(rules_, master_, trusted_, options);
  ASSERT_FALSE(engine.precheck_status().ok());

  Delta insert;
  insert.kind = DeltaKind::kInsert;
  insert.fields = {"EH7", "000", "Edi", "Eve"};
  EXPECT_EQ(engine.Apply(insert).code(), StatusCode::kInconsistent);

  Delta master_delete;
  master_delete.kind = DeltaKind::kMasterDelete;
  master_delete.row = 0;
  EXPECT_EQ(engine.Apply(master_delete).code(), StatusCode::kInconsistent);

  VectorDeltaSource source({insert});
  EXPECT_EQ(engine.ApplyAll(&source).code(), StatusCode::kInconsistent);
  EXPECT_EQ(engine.size(), 0u);
}

TEST_F(InertEngineTest, DeltaEngineRejectsUpdateAndMasterMutators) {
  DeltaRepairOptions options;
  options.analyze_first = AnalyzeMode::kStrict;
  DeltaRepairEngine engine(rules_, master_, trusted_, options);
  ASSERT_FALSE(engine.precheck_status().ok());

  Tuple row = master_.at(0);
  EXPECT_EQ(engine.Update(0, row).code(), StatusCode::kInconsistent);
  EXPECT_EQ(engine.MasterInsert(row).code(), StatusCode::kInconsistent);
  EXPECT_EQ(engine.MasterUpdate(0, row).code(), StatusCode::kInconsistent);
  EXPECT_EQ(engine.MasterDelete(0).code(), StatusCode::kInconsistent);
  // The engine's own master copy must be untouched by the refused calls.
  EXPECT_EQ(engine.master().size(), master_.size());
}

TEST_F(InertEngineTest, RejectedDeltaEngineReadsAreEmptyAndSafe) {
  DeltaRepairOptions options;
  options.analyze_first = AnalyzeMode::kStrict;
  DeltaRepairEngine engine(rules_, master_, trusted_, options);
  ASSERT_FALSE(engine.precheck_status().ok());

  engine.Flush();  // no workers, nothing in flight: must be a no-op
  DeltaRepairStats stats = engine.stats();
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.tuples_repaired, 0u);
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_EQ(stats.cells_changed, 0u);
  EXPECT_EQ(engine.SnapshotRepaired().size(), 0u);
  EXPECT_EQ(engine.SnapshotInput().size(), 0u);
  EXPECT_TRUE(engine.ConflictPositions().empty());
}

TEST_F(InertEngineTest, RejectedStreamEngineCountsNothing) {
  telemetry::ScopedRegistry registry;
  MasterIndex index(rules_, master_);
  Saturator sat(rules_, master_, index);
  StreamOptions options;
  options.analyze_first = AnalyzeMode::kStrict;
  CollectingSink sink(schema_);
  StreamRepairEngine engine(sat, trusted_, &sink, options);
  ASSERT_FALSE(engine.precheck_status().ok());

  EXPECT_FALSE(engine.Push(master_.at(0)));
  EXPECT_EQ(engine.PushStrings({"EH7", "000", "Edi", "Eve"}).code(),
            StatusCode::kInconsistent);
  EXPECT_EQ(engine.num_shards(), 0u) << "no workers on a rejected engine";
  // Refused pushes must not count as accepted traffic.
  telemetry::Registry& reg = registry.registry();
  EXPECT_EQ(reg.GetCounter("stream.tuples_in")->Value(), 0u);
  EXPECT_EQ(reg.GetCounter("stream.tuples_out")->Value(), 0u);
  EXPECT_EQ(reg.GetCounter("stream.cells_changed")->Value(), 0u);
  EXPECT_TRUE(sink.repaired().empty());
}

TEST_F(InertEngineTest, RepeatedFinishReturnsTheSameSnapshot) {
  // Sanity on a healthy engine: Finish is idempotent, and the snapshot a
  // second call returns carries the same numbers as the first.
  MasterIndex index(rules_, master_);
  Saturator sat(rules_, master_, index);
  CollectingSink sink(schema_);
  StreamRepairEngine engine(sat, trusted_, &sink, StreamOptions{});
  ASSERT_TRUE(engine.precheck_status().ok());
  ASSERT_TRUE(engine.PushStrings({"EH7", "", "Edi", "Eve"}).ok());
  ASSERT_TRUE(engine.PushStrings({"NW1", "", "Lnd", "Bob"}).ok());
  StreamSnapshot finish = engine.Finish();
  StreamSnapshot after = engine.Finish();
  EXPECT_EQ(finish.tuples_in, 2u);
  EXPECT_EQ(finish.tuples_out, 2u);
  EXPECT_EQ(after.tuples_in, finish.tuples_in);
  EXPECT_EQ(after.tuples_out, finish.tuples_out);
  EXPECT_EQ(after.cells_changed, finish.cells_changed);
  EXPECT_EQ(after.backpressure_waits, finish.backpressure_waits);
  EXPECT_EQ(after.max_reorder, finish.max_reorder);
  EXPECT_EQ(sink.repaired().size(), 2u);
}

}  // namespace
}  // namespace certfix
