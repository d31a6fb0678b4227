/// \file bench_stream_throughput.cc
/// \brief Throughput of the streaming point-of-entry repair engine
/// (src/stream/): one generated HOSP dirty stream pushed through
/// StreamRepairEngine at 1/2/4/8 shard workers, reporting tuples/sec and
/// speedup over the single-shard run, and checking that every shard
/// count produces byte-identical output (the ordered-merge guarantee).
///
/// Build & run:  ./build/bench/bench_stream_throughput [--json OUT.json]
///
/// --json writes a small machine-readable summary (consumed by the CI
/// bench-smoke leg as BENCH_stream.json).

#include <fstream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "relational/csv.h"
#include "stream/ordered_pipeline.h"
#include "stream/stream_repair.h"
#include "util/timer.h"
#include "workload/dirty_gen.h"

namespace certfix {
namespace bench {
namespace {

struct RunResult {
  size_t shards = 0;
  double tuples_per_second = 0;
  StreamSnapshot stats;
  std::string csv;  ///< WriteCsv bytes of the collected output
};

RunResult RunOnce(const Saturator& sat, const Relation& dirty,
                  AttrSet trusted, size_t shards) {
  CollectingSink sink(dirty.schema());
  StreamOptions options;
  options.num_shards = shards;
  options.queue_capacity = 64;
  Timer timer;
  StreamRepairEngine engine(sat, trusted, &sink, options);
  for (size_t i = 0; i < dirty.size(); ++i) {
    engine.Push(dirty.at(i));
  }
  RunResult r;
  r.shards = shards;
  r.stats = engine.Finish();
  double seconds = timer.Seconds();
  r.tuples_per_second = seconds > 0 ? dirty.size() / seconds : 0;
  std::ostringstream csv;
  WriteCsv(sink.repaired(), csv);
  r.csv = csv.str();
  return r;
}

int Run(const std::string& json_path) {
  Defaults defaults;
  PrintHeader("Streaming repair: tuples/sec vs shard-worker count",
              "point-of-entry monitoring (Sect. 1); src/stream/");

  WorkloadSetup w = MakeHosp(defaults.dm_size);
  MasterIndex index(w.rules, w.master);
  Saturator sat(w.rules, w.master, index);

  AttrSet trusted;
  trusted.Add(*w.schema->IndexOf("id"));
  trusted.Add(*w.schema->IndexOf("mCode"));

  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = defaults.duplicate_rate;
  gen_options.noise_rate = defaults.noise_rate;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 17;
  DirtyGenerator gen(w.master, w.non_master, gen_options);
  Relation dirty(w.schema);
  for (const DirtyPair& pair : gen.Generate(defaults.num_tuples)) {
    dirty.Append(pair.dirty);
  }

  std::cout << "|Dm| = " << w.master.size() << ", stream length = "
            << dirty.size() << ", trusted Z = {id, mCode}, hardware "
            << "threads = " << DefaultParallelism() << "\n\n"
            << "shards   tuples/sec   speedup  fully  partial  conflicts"
            << "  bp-waits\n";

  std::vector<RunResult> runs;
  double base_tps = 0;
  bool all_identical = true;
  for (size_t shards : {1, 2, 4, 8}) {
    RunResult r = RunOnce(sat, dirty, trusted, shards);
    if (shards == 1) {
      base_tps = r.tuples_per_second;
    } else if (r.csv != runs.front().csv) {
      all_identical = false;
    }
    std::cout << std::setw(6) << shards << std::setw(13) << std::fixed
              << std::setprecision(0) << r.tuples_per_second << std::setw(9)
              << std::setprecision(2)
              << (base_tps > 0 ? r.tuples_per_second / base_tps : 0.0)
              << std::setw(7) << r.stats.fully_covered << std::setw(9)
              << r.stats.partial << std::setw(11) << r.stats.conflicting
              << std::setw(10) << r.stats.backpressure_waits << "\n";
    runs.push_back(std::move(r));
  }

  if (!all_identical) {
    std::cout << "\nERROR: shard counts produced diverging output\n";
    return 1;
  }
  std::cout << "\nall shard counts produced byte-identical output\n";
  double speedup8 = base_tps > 0
                        ? runs.back().tuples_per_second / base_tps
                        : 0.0;
  if (DefaultParallelism() >= 8 && speedup8 < 2.0) {
    // Advisory on parallel hardware; meaningless on narrow machines.
    std::cout << "WARNING: 8-shard speedup " << std::setprecision(2)
              << speedup8 << " is below the 2x target\n";
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cout << "cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n  \"benchmark\": \"stream_throughput\",\n"
         << "  \"stream_length\": " << dirty.size() << ",\n"
         << "  \"master_rows\": " << w.master.size() << ",\n"
         << "  \"hardware_threads\": " << DefaultParallelism() << ",\n"
         << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      json << "    {\"shards\": " << r.shards << ", \"tuples_per_sec\": "
           << std::fixed << std::setprecision(1) << r.tuples_per_second
           << ", \"backpressure_waits\": " << r.stats.backpressure_waits
           << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"speedup_8_shards\": " << std::setprecision(3)
         << speedup8 << ",\n  \"output_identical\": true\n}\n";
    std::cout << "JSON summary written to " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace certfix

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  return certfix::bench::Run(json_path);
}
