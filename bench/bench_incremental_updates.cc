/// \file bench_incremental_updates.cc
/// \brief Incremental vs full-recompute repair under a mutation stream
/// (src/incremental/): load a generated HOSP relation into a
/// DeltaRepairEngine, apply a delta mix touching ~1% of the tuples
/// (updates, inserts, deletes, plus a few master upserts), and compare the
/// wall-clock of the incremental maintenance against BatchRepair run from
/// scratch over the final input — verifying byte-identical output.
///
/// Build & run:  ./build/bench/bench_incremental_updates
///               [--json OUT.json] [--rows N] [--mutate-rate R]
///               [--threads N]
///
/// Defaults: 100000 rows, 1% mutation rate (the ROADMAP acceptance
/// scenario), threads = hardware. --json writes the machine-readable
/// summary the CI bench-smoke leg publishes as BENCH_incremental.json.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_repair.h"
#include "incremental/delta_repair.h"
#include "relational/csv.h"
#include "stream/ordered_pipeline.h"
#include "util/timer.h"
#include "workload/dirty_gen.h"

namespace certfix {
namespace bench {
namespace {

std::string ToCsv(const Relation& rel) {
  std::ostringstream out;
  WriteCsv(rel, out);
  return out.str();
}

int Run(const std::string& json_path, size_t rows, double mutate_rate,
        size_t threads) {
  Defaults defaults;
  PrintHeader("Incremental repair: delta maintenance vs full recompute",
              "update-aware certain fixes; src/incremental/");
  if (threads == 0) threads = DefaultParallelism();

  WorkloadSetup w = MakeHosp(defaults.dm_size);
  AttrSet trusted;
  trusted.Add(*w.schema->IndexOf("id"));
  trusted.Add(*w.schema->IndexOf("mCode"));

  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = defaults.duplicate_rate;
  gen_options.noise_rate = defaults.noise_rate;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 23;
  DirtyGenerator gen(w.master, w.non_master, gen_options);
  Relation dirty(w.schema);
  dirty.Reserve(rows);
  for (const DirtyPair& pair : gen.Generate(rows)) {
    dirty.Append(pair.dirty);
  }

  DeltaRepairOptions options;
  options.num_shards = threads;
  DeltaRepairEngine engine(w.rules, w.master, trusted, options);

  Timer load_timer;
  engine.Load(dirty);
  engine.Flush();
  double load_seconds = load_timer.Seconds();

  // Phase 1 — the ROADMAP acceptance scenario: mutate ~mutate_rate of the
  // relation (80% point updates, 10% inserts, 10% deletes) and maintain
  // the repair incrementally; the baseline is one BatchRepair from
  // scratch over the final input.
  size_t mutations = static_cast<size_t>(rows * mutate_rate);
  if (mutations < 10) mutations = 10;
  Rng rng(97);
  std::vector<DirtyPair> fresh = gen.Generate(mutations);
  size_t next_fresh = 0;

  Timer delta_timer;
  for (size_t i = 0; i < mutations; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.80) {
      engine.Update(rng.Index(engine.size()),
                    fresh[next_fresh++ % fresh.size()].dirty);
    } else if (roll < 0.90) {
      engine.Insert(fresh[next_fresh++ % fresh.size()].dirty);
    } else {
      engine.Delete(rng.Index(engine.size()));
    }
  }
  engine.Flush();
  double delta_seconds = delta_timer.Seconds();
  DeltaRepairStats stats = engine.stats();

  // Phase 2 — master upserts, reported separately: each one rebuilds the
  // master index and re-repairs the (genuinely dependent) fan-out of
  // tuples that probed the touched row, where the naive alternative is a
  // full recompute per upsert.
  constexpr size_t kMasterUpserts = 20;
  Timer master_timer;
  for (size_t i = 0; i < kMasterUpserts; ++i) {
    const Relation& dm = engine.master();
    size_t pos = rng.Index(dm.size());
    Tuple t(w.schema);  // private pool: dm's pool is read by the workers
    for (size_t a = 0; a < w.schema->num_attrs(); ++a) {
      t.Set(static_cast<AttrId>(a), dm.Cell(pos, static_cast<AttrId>(a)));
    }
    t.Set(*w.schema->IndexOf("addr1"),
          Value::Str("relocated " + rng.AlphaString(8)));
    engine.MasterUpdate(pos, t);
    engine.Flush();  // pay the rebuild per upsert, like a live deployment
  }
  double master_seconds = master_timer.Seconds();
  DeltaRepairStats master_stats = engine.stats();

  // Full-recompute baseline over the final state, at the same thread
  // count. A from-scratch run must also rebuild the master index.
  Relation final_input = engine.SnapshotInput();
  Relation final_master = engine.master();
  Timer full_timer;
  MasterIndex index(w.rules, final_master);
  Saturator sat(w.rules, final_master, index);
  RepairOptions batch_options;
  batch_options.num_threads = threads;
  BatchRepairResult batch =
      BatchRepair(sat, batch_options).Repair(final_input, trusted);
  double full_seconds = full_timer.Seconds();

  bool identical = ToCsv(engine.SnapshotRepaired()) == ToCsv(batch.repaired);
  double speedup = delta_seconds > 0 ? full_seconds / delta_seconds : 0;
  size_t re_repaired = stats.tuples_repaired - rows;
  double re_per_sec = delta_seconds > 0 ? re_repaired / delta_seconds : 0;
  double per_upsert = master_seconds / kMasterUpserts;
  double upsert_speedup = per_upsert > 0 ? full_seconds / per_upsert : 0;
  uint64_t master_invalidated =
      master_stats.tuples_invalidated - stats.tuples_invalidated;

  std::cout << "|Dm| = " << w.master.size() << ", rows = " << rows
            << ", mutations = " << mutations << " (" << mutate_rate * 100
            << "%), threads = " << threads << "\n\n";
  std::cout << "initial load            " << std::fixed
            << std::setprecision(3) << load_seconds << " s\n"
            << "full recompute          " << full_seconds << " s  ("
            << final_input.size() << " rows)\n\n"
            << "input-delta phase       " << delta_seconds << " s  ("
            << re_repaired << " re-repaired; "
            << stats.noop_updates << " no-op updates)\n"
            << "  re-repaired tuples/s  " << std::setprecision(0)
            << re_per_sec << "\n"
            << "  speedup vs recompute  " << std::setprecision(2) << speedup
            << "x\n\n"
            << "master-upsert phase     " << std::setprecision(3)
            << master_seconds << " s  (" << kMasterUpserts << " upserts, "
            << master_invalidated << " tuples invalidated, "
            << master_stats.master_rebuilds - stats.master_rebuilds
            << " index rebuilds)\n"
            << "  per-upsert cost       " << per_upsert << " s\n"
            << "  speedup vs recompute  " << std::setprecision(2)
            << upsert_speedup << "x per upsert\n";
  if (!identical) {
    std::cout << "\nERROR: incremental state diverged from full recompute\n";
    return 1;
  }
  std::cout << "\nincremental state byte-identical to full recompute\n";
  if (speedup < 5.0) {
    std::cout << "WARNING: input-delta speedup " << speedup
              << " below the 5x target\n";
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cout << "cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n  \"benchmark\": \"incremental_updates\",\n"
         << "  \"rows\": " << rows << ",\n"
         << "  \"mutations\": " << mutations << ",\n"
         << "  \"master_rows\": " << w.master.size() << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"load_seconds\": " << std::setprecision(4) << load_seconds
         << ",\n"
         << "  \"full_recompute_seconds\": " << full_seconds << ",\n"
         << "  \"incremental_seconds\": " << delta_seconds << ",\n"
         << "  \"re_repaired_tuples\": " << re_repaired << ",\n"
         << "  \"re_repaired_per_sec\": " << std::setprecision(1)
         << re_per_sec << ",\n"
         << "  \"speedup_vs_full\": " << std::setprecision(3) << speedup
         << ",\n"
         << "  \"master_upserts\": " << kMasterUpserts << ",\n"
         << "  \"master_upsert_seconds\": " << std::setprecision(4)
         << master_seconds << ",\n"
         << "  \"master_invalidated_tuples\": " << master_invalidated
         << ",\n"
         << "  \"master_upsert_speedup_per_upsert\": "
         << std::setprecision(3) << upsert_speedup
         << ",\n  \"output_identical\": true\n}\n";
    std::cout << "JSON summary written to " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace certfix

int main(int argc, char** argv) {
  std::string json_path;
  size_t rows = 100000;
  double mutate_rate = 0.01;
  size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--rows" && i + 1 < argc) {
      rows = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--mutate-rate" && i + 1 < argc) {
      mutate_rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::strtoul(argv[++i], nullptr, 10);
    }
  }
  return certfix::bench::Run(json_path, rows, mutate_rate, threads);
}
