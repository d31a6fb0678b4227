/// \file ordered_pipeline_test.cc
/// \brief The ordered shard pipeline (stream/ordered_pipeline.h) on its
/// own — admission-order apply under random worker delays, the ring
/// index handed to the step, the reorder ring bounded by the window,
/// first-error surfacing, zero-worker mode —
/// plus the engines' registry views: two engines built one after another
/// under one registry each report only their own counts and max_reorder,
/// and a delta engine publishes its counts whether or not it was read.

#include "stream/ordered_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "incremental/delta_repair.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

using IntPipeline = OrderedShardPipeline<int, int>;

/// Routes job i to ring i (mod the worker count).
size_t ByJob(const int& job, uint64_t) { return static_cast<size_t>(job); }

/// A step that sleeps a pseudo-random 0-199 us per job (a fixed function
/// of the job), then emits job * 10.
IntPipeline::Step DelayedTimesTen() {
  return [](size_t, std::vector<IntPipeline::Ticket>& block,
            const IntPipeline::Emit& emit) {
    for (size_t j = 0; j < block.size(); ++j) {
      const uint32_t h = static_cast<uint32_t>(block[j].job) * 2654435761u;
      std::this_thread::sleep_for(std::chrono::microseconds(h % 200));
      emit(j, block[j].job * 10);
    }
  };
}

TEST(OrderedPipelineTest, AppliesInAdmissionOrderUnderRandomDelays) {
  constexpr int kJobs = 300;
  constexpr size_t kRing = 4;
  for (size_t workers : {1, 2, 8}) {
    std::vector<uint64_t> seqs;
    std::vector<int> results;
    IntPipeline pipeline(
        workers, kRing, DelayedTimesTen(),
        [&](uint64_t seq, int& result) {
          seqs.push_back(seq);
          results.push_back(result);
        },
        "test.merge");
    ASSERT_EQ(pipeline.num_workers(), workers);
    for (int i = 0; i < kJobs; ++i) {
      // Hash-scattered routing: neighbouring seqs land on different rings.
      ASSERT_TRUE(pipeline.Submit(i, [](const int& job, uint64_t) {
        return static_cast<size_t>(job) * 7919u;
      }));
    }
    pipeline.Drain();
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kJobs)) << workers;
    for (int i = 0; i < kJobs; ++i) {
      EXPECT_EQ(seqs[i], static_cast<uint64_t>(i)) << workers;
      EXPECT_EQ(results[i], i * 10) << workers;
    }
    // Buffered results never exceed the window.
    EXPECT_GE(pipeline.max_reorder(), 1u);
    EXPECT_LE(pipeline.max_reorder(), workers * kRing) << workers;
    pipeline.Close();
  }
}

TEST(OrderedPipelineTest, StepSeesItsRingAndCallsPerRingNeverOverlap) {
  // The engines index their shard state by the ring the step is handed,
  // unlocked: every job must arrive with the ring it was routed to, and
  // no two calls may hold one ring's state at once.
  constexpr size_t kWorkers = 3;
  std::atomic<int> busy[kWorkers] = {};
  std::atomic<int> misrouted{0};
  std::atomic<int> overlapped{0};
  std::vector<int> applied;
  IntPipeline pipeline(
      kWorkers, 2,
      [&](size_t ring, std::vector<IntPipeline::Ticket>& block,
          const IntPipeline::Emit& emit) {
        if (ring >= kWorkers || busy[ring].fetch_add(1) != 0) {
          overlapped.fetch_add(1);
        }
        for (size_t j = 0; j < block.size(); ++j) {
          if (static_cast<size_t>(block[j].job) % kWorkers != ring) {
            misrouted.fetch_add(1);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          emit(j, block[j].job);
        }
        if (ring < kWorkers) busy[ring].fetch_sub(1);
      },
      [&applied](uint64_t, int& result) { applied.push_back(result); },
      "test.merge");
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(pipeline.Submit(i, ByJob));
  pipeline.Drain();
  EXPECT_EQ(misrouted.load(), 0);
  EXPECT_EQ(overlapped.load(), 0);
  ASSERT_EQ(applied.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(applied[i], i);
}

TEST(OrderedPipelineTest, ReorderRingFillsExactlyToTheWindow) {
  // Two workers, rings of 4: a window of 8. Job 0 (ring 0) holds back
  // until jobs 1-7 (ring 1) have all merged, so the reorder ring buffers
  // the whole window before anything applies — and job 8 cannot be
  // admitted until job 0 applies, so it never overruns the window.
  constexpr size_t kRing = 4;
  constexpr size_t kWindow = 2 * kRing;
  std::atomic<int> merged{0};
  std::vector<int> applied;
  IntPipeline pipeline(
      2, kRing,
      [&merged](size_t, std::vector<IntPipeline::Ticket>& block,
                const IntPipeline::Emit& emit) {
        for (size_t j = 0; j < block.size(); ++j) {
          if (block[j].job == 0) {
            while (merged.load() < static_cast<int>(kWindow) - 1) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
          }
          emit(j, block[j].job);
          merged.fetch_add(1);
        }
      },
      [&applied](uint64_t, int& result) { applied.push_back(result); },
      "test.merge");
  auto route = [](const int& job, uint64_t) -> size_t {
    return job == 0 ? 0 : 1;
  };
  for (int i = 0; i <= static_cast<int>(kWindow); ++i) {
    ASSERT_TRUE(pipeline.Submit(i, route));
  }
  pipeline.Drain();
  EXPECT_EQ(pipeline.max_reorder(), kWindow);
  ASSERT_EQ(applied.size(), kWindow + 1);
  for (size_t i = 0; i < applied.size(); ++i) {
    EXPECT_EQ(applied[i], static_cast<int>(i));
  }
}

TEST(OrderedPipelineTest, FirstWorkerErrorSurfacesOnceAndRefusesSubmits) {
  // Jobs 3 and 4 throw, on different rings. Only one error may surface,
  // exactly once, and neither submitters nor Drain may hang.
  IntPipeline pipeline(
      2, 2,
      [](size_t, std::vector<IntPipeline::Ticket>& block,
         const IntPipeline::Emit& emit) {
        for (size_t j = 0; j < block.size(); ++j) {
          const int job = block[j].job;
          if (job == 3 || job == 4) {
            throw std::runtime_error("boom-" + std::to_string(job));
          }
          emit(j, job);
        }
      },
      [](uint64_t, int&) {}, "test.merge");
  int submitted = 0;
  while (submitted < 1000 && pipeline.Submit(submitted, ByJob)) ++submitted;
  EXPECT_GE(submitted, 4);  // nothing fails before job 3 is in
  EXPECT_LT(submitted, 1000) << "submits must be refused after a failure";
  try {
    pipeline.Drain();
    ADD_FAILURE() << "Drain did not rethrow the worker error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "boom-3" || what == "boom-4") << what;
  }
  EXPECT_TRUE(pipeline.failed());
  EXPECT_NO_THROW(pipeline.Drain());  // surfaced once only
  EXPECT_FALSE(pipeline.Submit(2000, ByJob));
  pipeline.Close();
  EXPECT_NO_THROW(pipeline.Drain());  // the second failure never surfaces
  EXPECT_FALSE(pipeline.Submit(2001, ByJob));
}

TEST(OrderedPipelineTest, ApplyErrorSurfacesAfterClose) {
  // A failure in the in-order apply (a sink, in the stream engine) counts
  // as a worker failure; Close() joins without throwing, Drain() reports.
  std::vector<int> applied;
  IntPipeline pipeline(
      3, 4, DelayedTimesTen(),
      [&applied](uint64_t seq, int& result) {
        if (seq == 5) throw std::logic_error("sink refused");
        applied.push_back(result);
      },
      "test.merge");
  for (int i = 0; i < 40; ++i) {
    if (!pipeline.Submit(i, ByJob)) break;
  }
  pipeline.Close();
  EXPECT_THROW(pipeline.Drain(), std::logic_error);
  EXPECT_NO_THROW(pipeline.Drain());
  EXPECT_EQ(applied, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(OrderedPipelineTest, ZeroWorkerModeAppliesInSubmitOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> seqs;
  std::vector<int> results;
  size_t steps = 0;
  IntPipeline pipeline(
      0, 4,
      [&](size_t ring, std::vector<IntPipeline::Ticket>& block,
          const IntPipeline::Emit& emit) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(ring, 0u);
        ASSERT_EQ(block.size(), 1u);
        ++steps;
        if (block[0].job < 0) throw std::invalid_argument("negative");
        emit(0, block[0].job * 10);
      },
      [&](uint64_t seq, int& result) {
        seqs.push_back(seq);
        results.push_back(result);
      },
      "test.merge");
  EXPECT_EQ(pipeline.num_workers(), 0u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pipeline.Submit(i, ByJob));
    // Applied before Submit returns.
    ASSERT_EQ(results.size(), static_cast<size_t>(i) + 1);
    EXPECT_EQ(results.back(), i * 10);
  }
  // Errors propagate straight out of Submit; the pipeline carries on.
  EXPECT_THROW(pipeline.Submit(-1, ByJob), std::invalid_argument);
  ASSERT_TRUE(pipeline.Submit(20, ByJob));
  EXPECT_NO_THROW(pipeline.Drain());
  EXPECT_FALSE(pipeline.failed());
  EXPECT_EQ(steps, 22u);
  ASSERT_EQ(results.size(), 21u);
  EXPECT_EQ(results.back(), 200);
  for (size_t i = 1; i < seqs.size(); ++i) EXPECT_LT(seqs[i - 1], seqs[i]);
  EXPECT_EQ(pipeline.max_reorder(), 0u);  // nothing is ever buffered
  pipeline.Close();
  EXPECT_FALSE(pipeline.Submit(21, ByJob));
}

// ---------------------------------------------------------------------------
// Engine registry views: baseline diffs per engine, max_reorder per engine.

class EngineViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
    index_ = std::make_unique<MasterIndex>(rules_, dm_);
    sat_ = std::make_unique<Saturator>(rules_, dm_, *index_);
    trusted_ = Attrs(r_, {"AC", "phn", "type", "zip"});
    data_ = Relation(r_);
    for (size_t i = 0; i < 60; ++i) {
      const Tuple t = i % 3 == 0 ? T1(r_) : i % 3 == 1 ? T3(r_) : T4(r_);
      ASSERT_TRUE(data_.Append(t).ok());
    }
  }

  StreamSnapshot RunStream(size_t shards, size_t rows) {
    CollectingSink sink(r_);
    StreamOptions options;
    options.num_shards = shards;
    StreamRepairEngine engine(*sat_, trusted_, &sink, options);
    for (size_t i = 0; i < rows; ++i) EXPECT_TRUE(engine.Push(data_.at(i)));
    return engine.Finish();
  }

  DeltaRepairStats RunDelta(size_t shards, size_t rows) {
    DeltaRepairOptions options;
    options.num_shards = shards;
    DeltaRepairEngine engine(rules_, dm_, trusted_, options);
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(engine.Insert(data_.at(i)).ok());
    }
    EXPECT_TRUE(engine.Delete(0).ok());
    return engine.stats();
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
  AttrSet trusted_;
  Relation data_;
};

TEST_F(EngineViewTest, StreamEnginesReportOnlyTheirOwnCounts) {
  StreamSnapshot alone_b;
  {
    telemetry::ScopedRegistry fresh;
    alone_b = RunStream(1, 21);
  }
  telemetry::ScopedRegistry shared;
  const StreamSnapshot a = RunStream(8, 60);
  const StreamSnapshot b = RunStream(1, 21);
  EXPECT_EQ(a.tuples_in, 60u);
  EXPECT_EQ(a.tuples_out, 60u);
  EXPECT_EQ(a.fully_covered + a.partial + a.untouched + a.conflicting, 60u);
  EXPECT_LE(a.max_reorder, 8u * kRingCapacity);
  // B sees none of A's traffic: exactly what B reports run alone.
  EXPECT_EQ(b.tuples_in, alone_b.tuples_in);
  EXPECT_EQ(b.tuples_out, alone_b.tuples_out);
  EXPECT_EQ(b.fully_covered, alone_b.fully_covered);
  EXPECT_EQ(b.partial, alone_b.partial);
  EXPECT_EQ(b.untouched, alone_b.untouched);
  EXPECT_EQ(b.conflicting, alone_b.conflicting);
  EXPECT_EQ(b.cells_changed, alone_b.cells_changed);
  EXPECT_EQ(b.memo_hits, alone_b.memo_hits);
  EXPECT_EQ(b.memo_misses, alone_b.memo_misses);
  EXPECT_EQ(b.tuples_in, 21u);
  // One worker merges in order: one result buffered at a time, whatever
  // A's high-water mark was.
  EXPECT_EQ(b.max_reorder, 1u);
  // The registry aggregates both engines.
  telemetry::Registry& reg = shared.registry();
  EXPECT_EQ(reg.GetCounter("stream.tuples_in")->Value(), 81u);
  EXPECT_EQ(reg.GetCounter("stream.cells_changed")->Value(),
            a.cells_changed + b.cells_changed);
  EXPECT_EQ(reg.GetMaxGauge("stream.max_reorder")->Value(),
            std::max(a.max_reorder, b.max_reorder));
}

TEST_F(EngineViewTest, DeltaEnginesReportOnlyTheirOwnCounts) {
  DeltaRepairStats alone_b;
  {
    telemetry::ScopedRegistry fresh;
    alone_b = RunDelta(1, 21);
  }
  telemetry::ScopedRegistry shared;
  const DeltaRepairStats a = RunDelta(3, 60);
  const DeltaRepairStats b = RunDelta(1, 21);
  EXPECT_EQ(a.rows, 59u);
  EXPECT_EQ(a.deltas_applied, 61u);
  EXPECT_EQ(a.tuples_repaired, 60u);
  EXPECT_EQ(a.fully_covered + a.partial + a.untouched + a.conflicting, 59u);
  EXPECT_LE(a.max_reorder, 3u * kRingCapacity);
  EXPECT_EQ(b.rows, alone_b.rows);
  EXPECT_EQ(b.deltas_applied, alone_b.deltas_applied);
  EXPECT_EQ(b.tuples_repaired, alone_b.tuples_repaired);
  EXPECT_EQ(b.fully_covered, alone_b.fully_covered);
  EXPECT_EQ(b.partial, alone_b.partial);
  EXPECT_EQ(b.untouched, alone_b.untouched);
  EXPECT_EQ(b.conflicting, alone_b.conflicting);
  EXPECT_EQ(b.cells_changed, alone_b.cells_changed);
  EXPECT_EQ(b.memo_hits, alone_b.memo_hits);
  EXPECT_EQ(b.memo_misses, alone_b.memo_misses);
  EXPECT_EQ(b.deltas_applied, 22u);
  // One shard repairs inline: nothing is ever buffered out of order.
  EXPECT_EQ(b.max_reorder, 0u);
  // The registry aggregates both engines; the slot-class gauges hold the
  // live populations of both.
  telemetry::Registry& reg = shared.registry();
  EXPECT_EQ(reg.GetCounter("delta.tuples_repaired")->Value(), 81u);
  EXPECT_EQ(reg.GetGauge("delta.fully_covered")->Value(),
            static_cast<int64_t>(a.fully_covered + b.fully_covered));
  EXPECT_EQ(reg.GetMaxGauge("delta.max_reorder")->Value(), a.max_reorder);
}

/// The registry's delta.* lines, but max_reorder (thread timing moves it).
std::string DeltaTotals(const telemetry::Registry& registry) {
  std::istringstream json(registry.ToJson());
  std::string line, out;
  while (std::getline(json, line)) {
    if (line.find("\"delta.") != std::string::npos &&
        line.find("max_reorder") == std::string::npos) {
      out += line + "\n";
    }
  }
  return out;
}

TEST_F(EngineViewTest, DeltaEngineDestroyedUnreadPublishesTheSameTotals) {
  auto run = [this](bool read_stats) {
    telemetry::ScopedRegistry registry;
    {
      DeltaRepairOptions options;
      options.num_shards = 3;
      DeltaRepairEngine engine(rules_, dm_, trusted_, options);
      for (size_t i = 0; i < 30; ++i) {
        EXPECT_TRUE(engine.Insert(data_.at(i)).ok());
      }
      EXPECT_TRUE(engine.MasterUpdate(0, dm_.at(1)).ok());
      for (size_t i = 30; i < 45; ++i) {
        EXPECT_TRUE(engine.Insert(data_.at(i)).ok());
      }
      EXPECT_TRUE(engine.Delete(0).ok());
      if (read_stats) {
        EXPECT_EQ(engine.stats().deltas_applied, 47u);
      }
    }
    return DeltaTotals(registry.registry());
  };
  const std::string read = run(true);
  EXPECT_NE(read.find("\"delta.deltas_applied\": 47"), std::string::npos)
      << read;
  EXPECT_NE(read.find("\"delta.master_rebuilds\": 1"), std::string::npos)
      << read;
  // Destruction publishes what no read did: the same totals.
  EXPECT_EQ(run(false), read);
}

TEST_F(EngineViewTest, EnginesAliveAtOnceReportOnlyTheirOwnCounts) {
  // Two engines of each kind live side by side and take turns, so every
  // one of them runs while the others record into the same registry.
  telemetry::ScopedRegistry shared;
  CollectingSink sink_a(r_);
  CollectingSink sink_b(r_);
  StreamOptions stream_options;
  stream_options.num_shards = 2;
  StreamRepairEngine stream_a(*sat_, trusted_, &sink_a, stream_options);
  StreamRepairEngine stream_b(*sat_, trusted_, &sink_b, stream_options);
  DeltaRepairOptions delta_options;
  delta_options.num_shards = 1;
  DeltaRepairEngine delta_a(rules_, dm_, trusted_, delta_options);
  delta_options.num_shards = 2;
  DeltaRepairEngine delta_b(rules_, dm_, trusted_, delta_options);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(stream_a.Push(data_.at(i)));
    ASSERT_TRUE(delta_b.Insert(data_.at(i)).ok());
    if (i < 2) {
      EXPECT_TRUE(stream_b.Push(data_.at(i)));
      ASSERT_TRUE(delta_a.Insert(data_.at(i)).ok());
    }
  }
  ASSERT_TRUE(delta_b.Delete(0).ok());

  const StreamSnapshot a = stream_a.Finish();
  const StreamSnapshot b = stream_b.Finish();
  EXPECT_EQ(a.tuples_in, 3u);
  EXPECT_EQ(a.tuples_out, 3u);
  EXPECT_EQ(a.fully_covered + a.partial + a.untouched + a.conflicting, 3u);
  EXPECT_EQ(a.memo_hits + a.memo_misses, 3u);
  EXPECT_EQ(b.tuples_in, 2u);
  EXPECT_EQ(b.tuples_out, 2u);
  EXPECT_EQ(b.fully_covered + b.partial + b.untouched + b.conflicting, 2u);
  EXPECT_EQ(b.memo_hits + b.memo_misses, 2u);

  const DeltaRepairStats da = delta_a.stats();
  const DeltaRepairStats db = delta_b.stats();
  EXPECT_EQ(da.rows, 2u);
  EXPECT_EQ(da.deltas_applied, 2u);
  EXPECT_EQ(da.tuples_repaired, 2u);
  EXPECT_EQ(da.fully_covered + da.partial + da.untouched + da.conflicting,
            2u);
  EXPECT_EQ(da.memo_hits + da.memo_misses, 2u);
  EXPECT_EQ(db.rows, 2u);
  EXPECT_EQ(db.deltas_applied, 4u);
  EXPECT_EQ(db.tuples_repaired, 3u);
  EXPECT_EQ(db.fully_covered + db.partial + db.untouched + db.conflicting,
            2u);
  EXPECT_EQ(db.memo_hits + db.memo_misses, 3u);

  // The registry still sums every engine.
  telemetry::Registry& reg = shared.registry();
  EXPECT_EQ(reg.GetCounter("stream.tuples_in")->Value(), 5u);
  EXPECT_EQ(reg.GetCounter("stream.tuples_out")->Value(), 5u);
  EXPECT_EQ(reg.GetCounter("delta.deltas_applied")->Value(), 6u);
  EXPECT_EQ(reg.GetCounter("delta.tuples_repaired")->Value(), 5u);
  EXPECT_EQ(reg.GetGauge("delta.cells_changed")->Value(),
            static_cast<int64_t>(da.cells_changed + db.cells_changed));
}

}  // namespace
}  // namespace certfix
