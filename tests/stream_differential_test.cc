#include "stream/stream_repair.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_repair.h"
#include "relational/csv.h"
#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

/// WriteCsv rendering of a relation — the byte-level comparison target.
std::string ToCsv(const Relation& rel) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(rel, out).ok());
  return out.str();
}

/// Streams every row of `data` through a fresh engine and returns the
/// collected output plus the sink's CSV bytes.
struct StreamRun {
  std::string csv;
  StreamSnapshot stats;
  std::vector<size_t> conflict_rows;
};

StreamRun RunStream(const Saturator& sat, const Relation& data,
                    AttrSet trusted, StreamOptions options) {
  // Two sinks would race the engine's single sink slot, so run the CSV
  // sink off the collected relation instead: CollectingSink stores the
  // emitted values, and WriteCsv over it is exactly what CsvStreamSink
  // would have produced (same FormatCsvLine path).
  CollectingSink sink(data.schema());
  StreamRepairEngine engine(sat, trusted, &sink, options);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(engine.Push(data.at(i)));
  }
  StreamRun run;
  run.stats = engine.Finish();
  run.csv = ToCsv(sink.repaired());
  run.conflict_rows = sink.conflict_rows();
  return run;
}

void ExpectMatchesBatch(const BatchRepairResult& batch,
                        const StreamRun& stream, const std::string& label) {
  EXPECT_EQ(stream.stats.fully_covered, batch.fully_covered) << label;
  EXPECT_EQ(stream.stats.partial, batch.partial) << label;
  EXPECT_EQ(stream.stats.untouched, batch.untouched) << label;
  EXPECT_EQ(stream.stats.conflicting, batch.conflicting) << label;
  EXPECT_EQ(stream.stats.cells_changed, batch.cells_changed) << label;
  EXPECT_EQ(stream.conflict_rows, batch.conflict_rows) << label;
  // The headline guarantee: byte-identical CSV output.
  EXPECT_EQ(stream.csv, ToCsv(batch.repaired)) << label;
}

class StreamSupplierTest : public ::testing::Test {
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

TEST_F(StreamSupplierTest, MatchesBatchAcrossThreadCounts) {
  // 25 rows cycling fixable / conflicting / untouchable, so conflicts and
  // counters cross shard boundaries at every worker count.
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
  BatchRepairResult batch = BatchRepair(*sat_).Repair(data, trusted);
  ASSERT_GT(batch.conflicting, 0u);
  for (size_t threads : {1, 2, 8}) {
    StreamOptions options;
    options.num_shards = threads;
    StreamRun run = RunStream(*sat_, data, trusted, options);
    ExpectMatchesBatch(batch, run,
                       "threads=" + std::to_string(threads));
  }
}

TEST_F(StreamSupplierTest, MoreTuplesThanTheWindowMatchBatch) {
  // Three windows' worth at two shards: every reorder-ring slot is
  // reused, and the producer may block on a full window or ring.
  Relation data(r_);
  for (size_t i = 0; i < 3 * 2 * kRingCapacity; ++i) {
    ASSERT_TRUE(data.Append(i % 2 == 0 ? T1(r_) : T4(r_)).ok());
  }
  AttrSet trusted = Attrs(r_, {"zip", "phn", "type", "item"});
  BatchRepairResult batch = BatchRepair(*sat_).Repair(data, trusted);
  StreamOptions options;
  options.num_shards = 2;
  StreamRun run = RunStream(*sat_, data, trusted, options);
  ExpectMatchesBatch(batch, run, "3 windows");
}

TEST_F(StreamSupplierTest, PoolRecyclingKeepsOutputIdentical) {
  // Four fresh strings per row (fn, ln, str and city, all of which the
  // rules fix) push the one shard's pool past kShardPoolLimit.
  Relation data(r_);
  const size_t rows = kShardPoolLimit / 3;
  for (size_t i = 0; i < rows; ++i) {
    Tuple t = T1(r_);
    const std::string n = std::to_string(i);
    for (const char* attr : {"fn", "ln", "str", "city"}) {
      t.Set(A(r_, attr), Value::Str(attr + n));
    }
    ASSERT_TRUE(data.Append(t).ok());
  }
  AttrSet trusted = Attrs(r_, {"zip", "phn", "type", "item"});
  BatchRepairResult batch = BatchRepair(*sat_).Repair(data, trusted);
  ASSERT_EQ(batch.fully_covered, rows);
  StreamOptions options;
  options.num_shards = 1;
  StreamRun run = RunStream(*sat_, data, trusted, options);
  ExpectMatchesBatch(batch, run, "recycled");
  EXPECT_GT(run.stats.pool_recycles, 0u);
}

TEST_F(StreamSupplierTest, RepeatedFinishReturnsTheSameSnapshot) {
  CollectingSink sink(r_);
  StreamRepairEngine engine(*sat_, Attrs(r_, {"zip", "phn", "type", "item"}),
                            &sink);
  ASSERT_TRUE(engine.Push(T1(r_)));
  ASSERT_TRUE(engine.Push(T4(r_)));
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

TEST_F(StreamSupplierTest, EmptyStream) {
  CollectingSink sink(r_);
  StreamOptions options;
  options.num_shards = 4;
  StreamRepairEngine engine(*sat_, Attrs(r_, {"zip"}), &sink, options);
  StreamSnapshot stats = engine.Finish();
  EXPECT_EQ(stats.tuples_in, 0u);
  EXPECT_EQ(stats.tuples_out, 0u);
  EXPECT_TRUE(sink.repaired().empty());
  // Finish is idempotent and Push after Finish is refused.
  EXPECT_FALSE(engine.Push(T1(r_)));
  stats = engine.Finish();
  EXPECT_EQ(stats.tuples_in, 0u);
}

TEST_F(StreamSupplierTest, PushStringsParsesAndRejectsBadArity) {
  CollectingSink sink(r_);
  StreamRepairEngine engine(*sat_, Attrs(r_, {"zip", "phn", "type", "item"}),
                            &sink);
  EXPECT_FALSE(engine.PushStrings({"too", "short"}).ok());
  Tuple t1 = T1(r_);
  std::vector<std::string> fields;
  for (size_t a = 0; a < r_->num_attrs(); ++a) {
    const Value& v = t1.at(static_cast<AttrId>(a));
    fields.push_back(v.is_null() ? "" : v.ToString());
  }
  ASSERT_TRUE(engine.PushStrings(fields).ok());
  StreamSnapshot stats = engine.Finish();
  EXPECT_EQ(stats.tuples_in, 1u);
  EXPECT_EQ(stats.tuples_out, 1u);
  ASSERT_EQ(sink.repaired().size(), 1u);
  EXPECT_EQ(sink.repaired().at(0), T1Truth(r_));
}

TEST_F(StreamSupplierTest, PushRefusesTupleOfAnotherSchema) {
  // A tuple of a narrower schema holds fewer cells than r_ has
  // attributes: copying it by r_'s attribute ids would read past its
  // cells. Push must refuse it and count nothing.
  SchemaPtr narrow =
      Schema::Make("N", std::vector<std::string>{"zip", "phn"});
  Result<Tuple> stray = Tuple::FromStrings(narrow, {"EH7 4AH", "3456789"});
  ASSERT_TRUE(stray.ok());
  CollectingSink sink(r_);
  StreamOptions options;
  options.num_shards = 2;
  StreamRepairEngine engine(*sat_, Attrs(r_, {"zip", "phn", "type", "item"}),
                            &sink, options);
  EXPECT_FALSE(engine.Push(*stray));
  EXPECT_TRUE(engine.Push(T1(r_)));
  StreamSnapshot stats = engine.Finish();
  EXPECT_EQ(stats.tuples_in, 1u);
  EXPECT_EQ(stats.tuples_out, 1u);
  ASSERT_EQ(sink.repaired().size(), 1u);
  EXPECT_EQ(sink.repaired().at(0), T1Truth(r_));
}

TEST_F(StreamSupplierTest, CsvSinkMatchesBatchWriteCsv) {
  Relation data(r_);
  ASSERT_TRUE(data.Append(T1(r_)).ok());
  ASSERT_TRUE(data.Append(T3(r_)).ok());
  ASSERT_TRUE(data.Append(T4(r_)).ok());
  AttrSet trusted = Attrs(r_, {"AC", "phn", "type", "zip"});
  BatchRepairResult batch = BatchRepair(*sat_).Repair(data, trusted);

  std::ostringstream stream_csv;
  {
    CsvStreamSink sink(r_, stream_csv);
    StreamOptions options;
    options.num_shards = 3;
    StreamRepairEngine engine(*sat_, trusted, &sink, options);
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(engine.Push(data.at(i)));
    }
    engine.Finish();
  }
  EXPECT_EQ(stream_csv.str(), ToCsv(batch.repaired));
}

TEST(StreamHospTest, MatchesBatchAtScaleAcrossThreadCounts) {
  for (const HospDirtyBatch& b : AtScaleHospBatches()) {
    const std::string label = std::to_string(b.dirty.size()) + " rows";
    MasterIndex index(b.rules, b.master);
    Saturator sat(b.rules, b.master, index);
    BatchRepairResult batch = BatchRepair(sat).Repair(b.dirty, b.trusted);
    for (size_t threads : {1, 2, 4, 8}) {
      StreamOptions options;
      options.num_shards = threads;
      StreamRun run = RunStream(sat, b.dirty, b.trusted, options);
      ExpectMatchesBatch(batch, run,
                         label + " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace certfix
