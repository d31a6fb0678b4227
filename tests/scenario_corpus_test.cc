// Scenario-corpus harness: every checked-in spec under tests/scenarios/
// (CERTFIX_SCENARIO_DIR) is generated, serialized to its delta-log bytes,
// and replayed through all three engines, which must agree byte-for-byte
// with the naive reference engine. Each spec runs as checked in and again
// with 20x its delta count (the `_x20` cases, at 4 shards only):
//
//  * oracle    — positional replay of the log (ApplyDeltaLog), then the
//                naive reference repair (reference/naive_repair.h: linear
//                master scans, Value equality, no MasterIndex, no memo, no
//                pools) of the final input against the final master
//  * batch     — BatchRepair over the same final state, at 1, 2 and 8
//                shards
//  * delta     — DeltaRepairEngine consuming the log via DeltaLogSource,
//                at 1, 2 and 8 shards
//  * stream    — StreamRepairEngine over the final input rows (point-of-
//                entry repair of the surviving tuples) against the final
//                master, at 1, 2 and 8 shards
//
// The zipf-skew spec additionally asserts the memo earns its keep: its
// duplicate-heavy stream must replay a sizable fraction of repairs.
//
// Seed shifting: CERTFIX_PROPERTY_SEED offsets every scenario's seed, and
// each --gtest_repeat iteration shifts it again, so CI soak runs cover
// fresh scenarios per repetition while any failure reproduces from the
// printed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>
#include <tuple>

#include "core/batch_repair.h"
#include "incremental/delta_repair.h"
#include "reference/naive_repair.h"
#include "relational/csv.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "test_util.h"
#include "workload/scenario.h"

namespace certfix {
namespace {

std::vector<std::string> CorpusSpecs() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CERTFIX_SCENARIO_DIR)) {
    if (entry.path().extension() == ".toml") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  Status st = WriteCsv(rel, out);
  EXPECT_TRUE(st.ok()) << st;
  return out.str();
}

// (delta-count multiplier, spec path).
using CorpusCase = std::tuple<size_t, std::string>;

class ScenarioCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

std::string ParamName(const ::testing::TestParamInfo<CorpusCase>& info) {
  const auto& [scale, path] = info.param;
  std::string stem = std::filesystem::path(path).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return scale == 1 ? stem : stem + "_x" + std::to_string(scale);
}

TEST_P(ScenarioCorpusTest, EnginesAgreeByteForByte) {
  const auto& [scale, path] = GetParam();
  Result<ScenarioSpec> loaded = LoadScenarioSpecFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ScenarioSpec spec = std::move(loaded).ValueOrDie();
  spec.num_deltas *= scale;
  // Every case, and every --gtest_repeat iteration, gets a fresh shift.
  const uint64_t shift = testing_fixtures::NextPropertySeed(0);
  spec.seed += shift;
  SCOPED_TRACE("scenario " + spec.name + " seed " +
               std::to_string(spec.seed) + " (shift " +
               std::to_string(shift) + ")");

  Result<Scenario> sc = GenerateScenario(spec);
  ASSERT_TRUE(sc.ok()) << sc.status();
  const std::string log = DeltaLogToString(*sc);

  // Oracle: positional replay of the log bytes, then from-scratch naive
  // repair of the final input against the final master.
  std::vector<std::vector<std::string>> input_rows = RenderRows(sc->initial);
  std::vector<std::vector<std::string>> master_rows = RenderRows(sc->master);
  Status replayed = ApplyDeltaLog(sc->deltas, &input_rows, &master_rows);
  ASSERT_TRUE(replayed.ok()) << replayed;
  Result<Relation> final_input = RelationFromRows(sc->schema, input_rows);
  Result<Relation> final_master = RelationFromRows(sc->schema, master_rows);
  ASSERT_TRUE(final_input.ok()) << final_input.status();
  ASSERT_TRUE(final_master.ok()) << final_master.status();

  // The oracle shares nothing with the engines it judges beyond storage,
  // and is single-threaded.
  const std::string want = CsvBytes(reference::BatchRepair(
      sc->rules, *final_master, *final_input, sc->trusted));

  MasterIndex index(sc->rules, *final_master);
  Saturator sat(sc->rules, *final_master, index);

  // The 20x replays run at one multi-shard count, which keeps the
  // sanitizer jobs short; the checked-in sizes cover 1, 2 and 8.
  const std::vector<size_t> shard_counts =
      scale == 1 ? std::vector<size_t>{1, 2, 8} : std::vector<size_t>{4};

  for (size_t threads : shard_counts) {
    SCOPED_TRACE("batch threads " + std::to_string(threads));
    RepairOptions options;
    options.num_threads = threads;
    BatchRepairResult result =
        BatchRepair(sat, options).Repair(*final_input, sc->trusted);
    EXPECT_EQ(CsvBytes(result.repaired), want);
    EXPECT_EQ(result.memo_hits + result.memo_misses, final_input->size());
  }

  for (size_t shards : shard_counts) {
    SCOPED_TRACE("shards " + std::to_string(shards));

    // Delta engine: consume the serialized log bytes via DeltaLogSource.
    {
      DeltaRepairOptions options;
      options.num_shards = shards;
      DeltaRepairEngine engine(sc->rules, sc->master, sc->trusted, options);
      ASSERT_TRUE(engine.Load(sc->initial).ok());
      std::istringstream in(log);
      DeltaLogSource source(sc->schema, sc->schema, in);
      Status st = engine.ApplyAll(&source);
      ASSERT_TRUE(st.ok()) << st;
      EXPECT_EQ(CsvBytes(engine.SnapshotInput()), CsvBytes(*final_input));
      EXPECT_EQ(CsvBytes(engine.SnapshotRepaired()), want);
      // Every repair is either a replay or a computation.
      DeltaRepairStats stats = engine.stats();
      EXPECT_EQ(stats.memo_hits + stats.memo_misses, stats.tuples_repaired);
    }

    // Stream engine: point-of-entry repair of the final input rows.
    {
      StreamOptions options;
      options.num_shards = shards;
      std::ostringstream out;
      CsvStreamSink sink(sc->schema, out);
      StreamRepairEngine engine(sat, sc->trusted, &sink, options);
      for (const auto& fields : input_rows) {
        Status st = engine.PushStrings(fields);
        ASSERT_TRUE(st.ok()) << st;
      }
      StreamSnapshot snapshot = engine.Finish();
      EXPECT_EQ(snapshot.tuples_out, input_rows.size());
      EXPECT_EQ(out.str(), want);
      EXPECT_EQ(snapshot.memo_hits + snapshot.memo_misses,
                snapshot.tuples_out);
    }
  }

  // Memo effectiveness on the skewed workload: replaying the zipf
  // stream a second time through the same engine must hit the shard
  // memos for every repeated row (identical rows route to the same
  // shard, and its memo key is the row's full relevant projection).
  const bool is_zipf = spec.name.find("zipf") != std::string::npos;
  if (is_zipf && !input_rows.empty()) {
    StreamOptions options;
    options.num_shards = 4;
    NullSink sink;
    StreamRepairEngine engine(sat, sc->trusted, &sink, options);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& fields : input_rows) {
        Status st = engine.PushStrings(fields);
        ASSERT_TRUE(st.ok()) << st;
      }
    }
    StreamSnapshot snapshot = engine.Finish();
    EXPECT_EQ(snapshot.memo_hits + snapshot.memo_misses,
              2 * input_rows.size());
    EXPECT_GE(snapshot.memo_hits, input_rows.size())
        << "second pass over identical rows should replay from the memo";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScenarioCorpusTest,
                         ::testing::Combine(::testing::Values(1, 20),
                                            ::testing::ValuesIn(CorpusSpecs())),
                         ParamName);

// The corpus must stay broad enough to mean something: at least 6 specs,
// covering skewed popularity, bursty arrival, correlated error clusters,
// and master-delta interleave.
TEST(ScenarioCorpusShape, CorpusCoversTheAdversarialAxes) {
  std::vector<std::string> paths = CorpusSpecs();
  ASSERT_GE(paths.size(), 6u);
  bool zipf = false, burst = false, clusters = false, master_mix = false,
       second_workload = false;
  for (const std::string& path : paths) {
    Result<ScenarioSpec> spec = LoadScenarioSpecFile(path);
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status();
    if (spec->popularity.kind == PopularityKind::kZipf) zipf = true;
    if (spec->arrival.kind == ArrivalKind::kBursty) burst = true;
    if (spec->errors.cluster_len > 0 && spec->errors.burst_continue > 0) {
      clusters = true;
    }
    if (spec->arrival.master_ratio > 0) master_mix = true;
    if (spec->workload == "dblp") second_workload = true;
  }
  EXPECT_TRUE(zipf) << "no zipf-skew scenario in the corpus";
  EXPECT_TRUE(burst) << "no bursty-arrival scenario in the corpus";
  EXPECT_TRUE(clusters) << "no correlated-error-cluster scenario";
  EXPECT_TRUE(master_mix) << "no master-delta interleave scenario";
  EXPECT_TRUE(second_workload) << "corpus only exercises one workload";
}

}  // namespace
}  // namespace certfix
