/// \file bench_scenarios.cc
/// \brief Cross-engine throughput over the adversarial scenario corpus
/// (tests/scenarios/*.toml, src/workload/scenario.h): each spec is
/// generated, serialized to its delta-log bytes, and driven through the
/// delta engine (DeltaLogSource replay), the stream engine (point-of-
/// entry repair of the final input), and a from-scratch BatchRepair
/// baseline — asserting byte-identical output, so every throughput
/// number is also a correctness gate.
///
/// Build & run:  ./build/bench/bench_scenarios
///               [--specs DIR] [--json OUT.json] [--threads N]
///               [--scale-deltas K] [--no-telemetry]
///
/// Defaults: DIR = tests/scenarios, threads = hardware,
/// --scale-deltas 20 multiplies each spec's delta count so the small
/// corpus-sized specs produce measurable runs (the checked-in specs stay
/// test-sized; scaling happens here, in memory). --json writes the
/// machine-readable summary published as BENCH_scenarios.json; scenarios
/// are listed in sorted filename order so tools/bench_diff.py can match
/// list entries by index.
///
/// Each scenario runs under its own telemetry registry and publishes a
/// per-scenario "latency" object (repair_tuple_ns / queue_push_wait_ns
/// percentiles) in the JSON — telemetry is on by default, as in
/// production; --no-telemetry disables the clock reads to measure the
/// instrumentation overhead itself (tools/bench_diff.py ignores keys
/// absent from the baseline, so older baselines keep working). Any other
/// argument is an error (exit 1).

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_repair.h"
#include "incremental/delta_repair.h"
#include "relational/csv.h"
#include "stream/ordered_pipeline.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "telemetry/metrics.h"
#include "util/timer.h"
#include "workload/scenario.h"

namespace certfix {
namespace bench {
namespace {

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  WriteCsv(rel, out);
  return out.str();
}

struct ScenarioRow {
  std::string name;
  size_t num_deltas = 0;
  size_t final_rows = 0;
  double generate_seconds = 0;
  double batch_seconds = 0;
  double delta_apply_seconds = 0;
  double deltas_per_sec = 0;
  double stream_seconds = 0;
  double stream_rows_per_sec = 0;
  bool output_identical = false;
  telemetry::HistogramSnapshot repair_tuple;
  telemetry::HistogramSnapshot queue_push_wait;
};

/// Renders one histogram snapshot as a flat JSON object (integer ns).
void WriteLatencyJson(std::ostream& json, const char* key,
                      const telemetry::HistogramSnapshot& h,
                      const char* trailer) {
  json << "        \"" << key << "\": {\"count\": " << h.count
       << ", \"p50\": " << h.p50 << ", \"p90\": " << h.p90
       << ", \"p99\": " << h.p99 << ", \"max\": " << h.max << "}" << trailer
       << "\n";
}

int Run(const std::string& specs_dir, const std::string& json_path,
        size_t threads, size_t scale_deltas) {
  PrintHeader("Scenario corpus: cross-engine throughput + byte agreement",
              "adversarial workload shapes; src/workload/scenario.h");
  if (threads == 0) threads = DefaultParallelism();

  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(specs_dir, ec)) {
    if (entry.path().extension() == ".toml") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec || paths.empty()) {
    std::cout << "no scenario specs under " << specs_dir << "\n";
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  std::vector<ScenarioRow> rows;
  bool all_identical = true;
  for (const std::string& path : paths) {
    Result<ScenarioSpec> loaded = LoadScenarioSpecFile(path);
    if (!loaded.ok()) {
      std::cout << path << ": " << loaded.status() << "\n";
      return 1;
    }
    ScenarioSpec spec = std::move(loaded).ValueOrDie();
    spec.num_deltas *= scale_deltas;

    // Fresh registry per scenario so each JSON row's latency block
    // covers exactly the engines run for that scenario.
    telemetry::ScopedRegistry scenario_registry;

    ScenarioRow row;
    row.name = spec.name;
    row.num_deltas = spec.num_deltas;

    Timer gen_timer;
    Result<Scenario> sc = GenerateScenario(spec);
    if (!sc.ok()) {
      std::cout << spec.name << ": " << sc.status() << "\n";
      return 1;
    }
    row.generate_seconds = gen_timer.Seconds();
    const std::string log = DeltaLogToString(*sc);

    // Oracle replay + from-scratch batch repair of the final state.
    std::vector<std::vector<std::string>> input_rows = RenderRows(sc->initial);
    std::vector<std::vector<std::string>> master_rows = RenderRows(sc->master);
    if (Status st = ApplyDeltaLog(sc->deltas, &input_rows, &master_rows);
        !st.ok()) {
      std::cout << spec.name << ": replay failed: " << st << "\n";
      return 1;
    }
    Result<Relation> final_input = RelationFromRows(sc->schema, input_rows);
    Result<Relation> final_master = RelationFromRows(sc->schema, master_rows);
    if (!final_input.ok() || !final_master.ok()) {
      std::cout << spec.name << ": final-state build failed\n";
      return 1;
    }
    row.final_rows = final_input->size();

    Timer batch_timer;
    MasterIndex index(sc->rules, *final_master);
    Saturator sat(sc->rules, *final_master, index);
    RepairOptions batch_options;
    batch_options.num_threads = threads;
    BatchRepairResult batch =
        BatchRepair(sat, batch_options).Repair(*final_input, sc->trusted);
    row.batch_seconds = batch_timer.Seconds();
    const std::string want = CsvBytes(batch.repaired);

    // Delta engine: consume the serialized log via DeltaLogSource.
    std::string delta_bytes;
    {
      DeltaRepairOptions options;
      options.num_shards = threads;
      DeltaRepairEngine engine(sc->rules, sc->master, sc->trusted, options);
      if (Status st = engine.Load(sc->initial); !st.ok()) {
        std::cout << spec.name << ": load failed: " << st << "\n";
        return 1;
      }
      engine.Flush();
      std::istringstream in(log);
      DeltaLogSource source(sc->schema, sc->schema, in);
      Timer delta_timer;
      if (Status st = engine.ApplyAll(&source); !st.ok()) {
        std::cout << spec.name << ": delta replay failed: " << st << "\n";
        return 1;
      }
      engine.Flush();
      row.delta_apply_seconds = delta_timer.Seconds();
      row.deltas_per_sec = row.delta_apply_seconds > 0
                               ? static_cast<double>(sc->deltas.size()) /
                                     row.delta_apply_seconds
                               : 0;
      delta_bytes = CsvBytes(engine.SnapshotRepaired());
    }

    // Stream engine: point-of-entry repair of the final input rows.
    std::string stream_bytes;
    {
      StreamOptions options;
      options.num_shards = threads;
      std::ostringstream out;
      CsvStreamSink sink(sc->schema, out);
      StreamRepairEngine engine(sat, sc->trusted, &sink, options);
      Timer stream_timer;
      for (const auto& fields : input_rows) {
        if (Status st = engine.PushStrings(fields); !st.ok()) {
          std::cout << spec.name << ": push failed: " << st << "\n";
          return 1;
        }
      }
      engine.Finish();
      row.stream_seconds = stream_timer.Seconds();
      row.stream_rows_per_sec =
          row.stream_seconds > 0
              ? static_cast<double>(input_rows.size()) / row.stream_seconds
              : 0;
      stream_bytes = out.str();
    }

    row.repair_tuple =
        telemetry::Registry::Global()->GetHistogram("repair_tuple_ns")->Snap();
    row.queue_push_wait = telemetry::Registry::Global()
                              ->GetHistogram("queue_push_wait_ns")
                              ->Snap();

    row.output_identical = delta_bytes == want && stream_bytes == want;
    all_identical = all_identical && row.output_identical;
    std::cout << std::left << std::setw(16) << row.name << std::right
              << std::setw(7) << row.num_deltas << " deltas "
              << std::setw(6) << row.final_rows << " rows  " << std::fixed
              << std::setprecision(0) << std::setw(9) << row.deltas_per_sec
              << " deltas/s  " << std::setw(9) << row.stream_rows_per_sec
              << " stream rows/s  "
              << (row.output_identical ? "identical" : "DIVERGED") << "\n";
    rows.push_back(row);
  }

  if (!all_identical) {
    std::cout << "\nERROR: engine outputs diverged on at least one "
                 "scenario\n";
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cout << "cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n  \"benchmark\": \"scenarios\",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"scale_deltas\": " << scale_deltas << ",\n"
         << "  \"output_identical\": " << (all_identical ? "true" : "false")
         << ",\n  \"scenarios\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const ScenarioRow& r = rows[i];
      json << "    {\n      \"name\": \"" << r.name << "\",\n"
           << "      \"deltas\": " << r.num_deltas << ",\n"
           << "      \"final_rows\": " << r.final_rows << ",\n"
           << "      \"generate_seconds\": " << std::fixed
           << std::setprecision(4) << r.generate_seconds << ",\n"
           << "      \"batch_seconds\": " << r.batch_seconds << ",\n"
           << "      \"delta_apply_seconds\": " << r.delta_apply_seconds
           << ",\n"
           << "      \"deltas_per_sec\": " << std::setprecision(1)
           << r.deltas_per_sec << ",\n"
           << "      \"stream_seconds\": " << std::setprecision(4)
           << r.stream_seconds << ",\n"
           << "      \"stream_rows_per_sec\": " << std::setprecision(1)
           << r.stream_rows_per_sec << ",\n"
           << "      \"latency\": {\n";
      WriteLatencyJson(json, "repair_tuple_ns", r.repair_tuple, ",");
      WriteLatencyJson(json, "queue_push_wait_ns", r.queue_push_wait, "");
      json << "      },\n"
           << "      \"output_identical\": "
           << (r.output_identical ? "true" : "false") << "\n    }"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "JSON summary written to " << json_path << "\n";
  }
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace certfix

int main(int argc, char** argv) {
  std::string specs_dir = "tests/scenarios";
  std::string json_path;
  size_t threads = 0;
  size_t scale_deltas = 20;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--specs" && i + 1 < argc) {
      specs_dir = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--scale-deltas" && i + 1 < argc) {
      scale_deltas = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--no-telemetry") {
      certfix::telemetry::SetEnabled(false);
    } else {
      std::cout << "unknown argument '" << arg << "'\n";
      return 1;
    }
  }
  return certfix::bench::Run(specs_dir, json_path, threads, scale_deltas);
}
