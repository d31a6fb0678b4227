/// \file bench_parallel_repair.cc
/// \brief Throughput of the parallel batch-repair engine (Sect. 7
/// future work: "efficiently find certain fixes for data in a
/// database"). Repairs one generated HOSP dirty batch — trusted keys
/// {id, mCode}, the rest noisy — at 1/2/4/8 threads (shards of the
/// ordered shard pipeline) and reports tuples/sec plus speedup over one
/// thread, checking along the way that every thread count produces the
/// same repair.
///
/// Build & run:  ./build/bench/bench_parallel_repair

#include "bench_util.h"
#include "core/batch_repair.h"
#include "stream/ordered_pipeline.h"

namespace certfix {
namespace bench {
namespace {

bool SameRepair(const BatchRepairResult& a, const BatchRepairResult& b) {
  if (a.tuples_fully_covered != b.tuples_fully_covered ||
      a.tuples_partial != b.tuples_partial ||
      a.tuples_untouched != b.tuples_untouched ||
      a.tuples_conflicting != b.tuples_conflicting ||
      a.cells_changed != b.cells_changed || a.conflict_rows != b.conflict_rows ||
      a.repaired.size() != b.repaired.size()) {
    return false;
  }
  for (size_t i = 0; i < a.repaired.size(); ++i) {
    if (!(a.repaired.at(i) == b.repaired.at(i))) return false;
  }
  return true;
}

int Run() {
  Defaults defaults;
  PrintHeader("Parallel batch repair: tuples/sec vs worker count",
              "Sect. 7 future work; engine of docs/ARCHITECTURE.md");

  WorkloadSetup w = MakeHosp(defaults.dm_size);
  MasterIndex index(w.rules, w.master);
  Saturator sat(w.rules, w.master, index);

  AttrSet trusted;
  trusted.Add(*w.schema->IndexOf("id"));
  trusted.Add(*w.schema->IndexOf("mCode"));

  ExperimentConfig config;
  config.num_tuples = defaults.num_tuples;
  config.gen.duplicate_rate = defaults.duplicate_rate;
  config.gen.noise_rate = defaults.noise_rate;
  config.gen.seed = 17;

  std::cout << "|Dm| = " << w.master.size() << ", |D| = "
            << config.num_tuples << ", trusted Z = {id, mCode}, hardware "
            << "threads = " << DefaultParallelism() << "\n\n"
            << "threads   tuples/sec   speedup  fully  partial  conflicts\n";

  double base_tps = 0.0;
  BatchExperimentResult reference;
  bool all_identical = true;
  for (size_t threads : {1, 2, 4, 8}) {
    RepairOptions options;
    options.num_threads = threads;
    BatchExperimentResult r = RunBatchRepairExperiment(
        sat, w.master, w.non_master, trusted, config, options);
    if (threads == 1) {
      base_tps = r.tuples_per_second;
      reference = r;
    } else if (!SameRepair(r.repair, reference.repair)) {
      all_identical = false;
    }
    std::cout << std::setw(7) << threads << std::setw(13) << std::fixed
              << std::setprecision(0) << r.tuples_per_second << std::setw(9)
              << std::setprecision(2)
              << (base_tps > 0 ? r.tuples_per_second / base_tps : 0.0)
              << std::setw(7) << r.repair.tuples_fully_covered
              << std::setw(9) << r.repair.tuples_partial << std::setw(11)
              << r.repair.tuples_conflicting << "\n";
  }

  std::cout << "\nquality (thread-independent): recall_a = " << std::fixed
            << std::setprecision(3) << reference.recall_a
            << ", precision_a = " << reference.precision_a
            << ", F-measure = " << reference.f_measure << "\n";
  if (!all_identical) {
    std::cout << "ERROR: parallel repair diverged from the sequential "
                 "reference\n";
    return 1;
  }
  std::cout << "all thread counts produced bit-identical repairs\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace certfix

int main() { return certfix::bench::Run(); }
