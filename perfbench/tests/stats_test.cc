// Unit test of the benchmark's statistics code (src/stats.h) against
// hand-computed cases. Run: perfbench_stats_test (exit 0 = all passed),
// or `python3 perfbench/run.py --self-test`.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK_EQ(a, b)                                                    \
  do {                                                                    \
    auto va = (a);                                                        \
    auto vb = (b);                                                        \
    if (!(va == vb)) {                                                    \
      ++failures;                                                         \
      std::cerr << __FILE__ << ":" << __LINE__ << ": " #a " == " #b       \
                << " failed: " << va << " vs " << vb << "\n";             \
    }                                                                     \
  } while (0)

using namespace perfbench;

void TestPercentileSelection() {
  // p99 needs n - ceil(0.99 n) >= 10, i.e. n >= 1000.
  CHECK_EQ(NearestRank(1000, 990), 990u);
  CHECK_EQ(SamplesBeyond(1000, 990), 10u);
  CHECK_EQ(NearestRank(999, 990), 990u);  // ceil(989.01)
  CHECK_EQ(SamplesBeyond(999, 990), 9u);
  CHECK_EQ(HighestSupportedPermille(1000), 990u);
  CHECK_EQ(HighestSupportedPermille(999), 900u);
  CHECK_EQ(HighestSupportedPermille(10000), 999u);  // 9990th, 10 beyond
  CHECK_EQ(HighestSupportedPermille(9999), 990u);
  CHECK_EQ(HighestSupportedPermille(100), 900u);  // p99 has 1 beyond
  CHECK_EQ(HighestSupportedPermille(20), 500u);   // 10th of 20, 10 beyond
  CHECK_EQ(HighestSupportedPermille(19), 0u);
  CHECK_EQ(HighestSupportedPermille(0), 0u);
  CHECK_EQ(NearestRank(1, 500), 1u);

  // 1..1000 shuffled: nearest-rank p50 = 500, p99 = 990; p99.9 has only
  // one sample beyond, so the reported tail is p99.
  std::vector<uint64_t> samples;
  for (uint64_t v = 1; v <= 1000; ++v) samples.push_back(v);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(7));
  LatencySummary s = Summarize(samples);
  CHECK_EQ(s.count, 1000u);
  CHECK_EQ(s.p50, 500u);
  CHECK_EQ(s.p99, 990u);
  CHECK_EQ(s.p99_supported, true);
  CHECK_EQ(s.tail_permille, 990u);
  CHECK_EQ(s.tail, 990u);
  samples.pop_back();
  CHECK_EQ(Summarize(samples).p99_supported, false);

  CHECK_EQ(Median({3, 1, 2}), 2.0);
  CHECK_EQ(Median({4, 1, 3, 2}), 2.5);
  CHECK_EQ(Median({}), 0.0);
}

void TestWindows() {
  // Three complete windows of 1,000 samples (the last 500 are dropped).
  // Window 0 is 1..1000 (p99 990); window 1 adds 5,000 to each (p99
  // 5990); window 2 is 1..1000 again. Median of {990, 5990, 990} = 990:
  // one slow window does not move the result.
  std::vector<uint64_t> samples;
  for (uint64_t w = 0; w < 3; ++w) {
    for (uint64_t v = 1; v <= 1000; ++v) {
      samples.push_back(v + (w == 1 ? 5000 : 0));
    }
  }
  for (uint64_t v = 0; v < 500; ++v) samples.push_back(1000000);
  CHECK_EQ(MedianWindowPercentile(samples, 1000, 990), 990.0);
  CHECK_EQ(MedianWindowPercentile(samples, 5000, 990), 0.0);  // no window

  // Operations of 1 ms each carrying 10 items = 10,000 items/s, except a
  // window of 2 ms operations (5,000/s). Windows of 4: rates {10000,
  // 5000, 10000, 10000}, median 10000.
  std::vector<uint64_t> ns(16, 1000000);
  for (size_t i = 4; i < 8; ++i) ns[i] = 2000000;
  CHECK_EQ(MedianWindowRate(ns, 4, 10.0), 10000.0);
  ns.resize(8);  // windows {10000, 5000}: median is their mean
  CHECK_EQ(MedianWindowRate(ns, 4, 10.0), 7500.0);
}

void TestOpenLoopLateness() {
  const OpenLoopSchedule thirds(1000, 3);
  CHECK_EQ(thirds.Due(0), 1000u);
  CHECK_EQ(thirds.Due(1), 1000u + 333333333u);
  CHECK_EQ(thirds.Due(2), 1000u + 666666666u);
  CHECK_EQ(thirds.Due(3), 1000u + 1000000000u);

  // 1,000 requests/s from t = 0. The third send stalls until 5 ms; the
  // two after it go out as fast as possible. Lateness is send - due;
  // latency runs from the due time, so the stall counts against every
  // request it delayed.
  const OpenLoopSchedule ms(0, 1000);
  const uint64_t sent[] = {0, 1000000, 5000000, 5001000, 5002000};
  const uint64_t done[] = {500000, 1500000, 5500000, 5600000, 5700000};
  const uint64_t want_late[] = {0, 0, 3000000, 2001000, 1002000};
  const uint64_t want_latency[] = {500000, 500000, 3500000, 2600000,
                                   1700000};
  std::vector<uint64_t> late;
  for (uint64_t i = 0; i < 5; ++i) {
    CHECK_EQ(Lateness(ms.Due(i), sent[i]), want_late[i]);
    CHECK_EQ(SinceDue(ms.Due(i), done[i]), want_latency[i]);
    late.push_back(Lateness(ms.Due(i), sent[i]));
  }
  CHECK_EQ(Summarize(late).p99, 3000000u);  // 5 samples: p99 is the max
  CHECK_EQ(Summarize(late).p50, 1002000u);  // 3rd of {0,0,1.002,2.001,3}
  CHECK_EQ(Lateness(100, 90), 0u);  // early sends are not negative lateness
}

std::string Event(const char* name, char ph, const char* ts, int tid) {
  return std::string("  {\"name\": \"") + name +
         "\", \"cat\": \"certfix\", \"ph\": \"" + ph + "\", \"ts\": " + ts +
         ", \"pid\": 1, \"tid\": " + std::to_string(tid) + "},\n";
}

void TestAttribution() {
  // Caller thread 1 (ns): bench.phase [0,100] holds core.repair [10,60]
  // (which holds batch.merge [20,30]) and stream.push [70,90] (which
  // holds stream.ingest [72,80]). A read outside the root and a worker
  // span on thread 2 are not attributed.
  std::string json = "{\"traceEvents\": [\n";
  json += Event("stream.shard_repair", 'B', "0.000", 2);
  json += Event("stream.shard_repair", 'E', "0.100", 2);
  json += Event("bench.phase", 'B', "0.000", 1);
  json += Event("core.repair", 'B', "0.010", 1);
  json += Event("batch.merge", 'B', "0.020", 1);
  json += Event("batch.merge", 'E', "0.030", 1);
  json += Event("core.repair", 'E', "0.060", 1);
  json += Event("stream.push", 'B', "0.070", 1);
  json += Event("stream.ingest", 'B', "0.072", 1);
  json += Event("stream.ingest", 'E', "0.080", 1);
  json += Event("stream.push", 'E', "0.090", 1);
  json += Event("bench.phase", 'E', "0.100", 1);
  json += Event("relational.read_csv", 'B', "0.200", 1);
  json += Event("relational.read_csv", 'E', "1.250", 1);
  json += "]}\n";

  const std::vector<TraceEvent> events = ParseTraceEvents(json);
  CHECK_EQ(events.size(), 14u);
  CHECK_EQ(events[3].name, std::string("core.repair"));
  CHECK_EQ(events[3].ts_ns, 10u);
  CHECK_EQ(events[13].ts_ns, 1250u);
  CHECK_EQ(events[0].tid, 2u);

  const Attribution a = Attribute(events, "bench.phase");
  CHECK_EQ(a.ok, true);
  CHECK_EQ(a.wall_ns, 100u);
  // core: core.repair 50 - 10 + batch.merge 10; stream: 20 - 8 + 8.
  CHECK_EQ(a.self_ns.at("core"), 50u);
  CHECK_EQ(a.self_ns.at("stream"), 20u);
  CHECK_EQ(a.self_ns.count("relational"), 0u);
  CHECK_EQ(a.unattributed_ns, 30u);
  CHECK_EQ(a.UnattributedFrac(), 0.3);
  uint64_t sum = a.unattributed_ns;
  for (const auto& [layer, ns] : a.self_ns) sum += ns;
  CHECK_EQ(sum, a.wall_ns);

  const auto totals = SpanTotals(events);
  CHECK_EQ(totals.at("stream.shard_repair").total_ns, 100u);
  CHECK_EQ(totals.at("relational.read_csv").total_ns, 1050u);
  CHECK_EQ(totals.at("core.repair").count, 1u);

  CHECK_EQ(LayerOf("wal.append"), std::string("storage"));
  CHECK_EQ(LayerOf("delta.rebuild"), std::string("incremental"));
  CHECK_EQ(LayerOf("batch.merge"), std::string("core"));
  CHECK_EQ(LayerOf("mystery"), std::string("other"));

  // No root span: nothing attributed.
  CHECK_EQ(Attribute(events, "absent.root").ok, false);
  // An unmatched end on the caller thread is a nesting error.
  std::string bad = json;
  bad.insert(bad.find("]}"), Event("core.repair", 'E', "2.000", 1));
  CHECK_EQ(Attribute(ParseTraceEvents(bad), "bench.phase").ok, false);
}

}  // namespace

int main() {
  TestPercentileSelection();
  TestWindows();
  TestOpenLoopLateness();
  TestAttribution();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench stats: all checks passed\n";
  return 0;
}
