/// \file batch_miss.cc
/// \brief batch-miss: batch jobs against a master far larger than L2,
/// on input whose projections rarely repeat, so nearly every tuple takes
/// the memo-miss path: saturation, the exact unique-fix check and master
/// probes. The stream, incremental and storage layers are not used.
///
/// Closed loop: one client submits CSV jobs of kJobRows rows back to
/// back; a job is parse + BatchRepair::Repair (kWorkers threads) +
/// WriteCsv. Latency is per job; throughput is rows per second.

#include <algorithm>
#include <memory>

#include "core/batch_repair.h"
#include "harness.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace certfix;

namespace {

constexpr size_t kMasterRows = 200000;
constexpr size_t kInputRows = 40000;
constexpr size_t kJobRows = 250;
/// Set-ups in an untraced run, spread evenly over it. Each replaces the
/// structures the jobs run against, so the set-up median samples the
/// same stretch of time as the jobs rather than the first seconds.
constexpr size_t kSetupRuns = 7;
/// A timed loop runs past the run's end until it has this many jobs, so
/// the job-latency p99 always has ten samples beyond it.
constexpr size_t kMinTimedJobs = 1100;
/// Throughput is the median over windows of this many consecutive jobs.
constexpr size_t kRateWindowJobs = 40;
/// The oracle repairs every kOracleStride-th job from scratch on the
/// sequential path, the differential reference of BatchRepair.
constexpr size_t kOracleStride = 8;

ScenarioSpec Spec(uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "batch-miss";
  spec.seed = seed;
  spec.master_rows = kMasterRows;
  spec.initial_rows = kInputRows;
  spec.num_deltas = 0;
  spec.duplicate_rate = 0.7;
  spec.popularity.kind = PopularityKind::kUniform;
  spec.errors.tuple_error_rate = 0.4;
  return spec;
}

/// Master relation plus the structures built over it. Heap-held: the
/// index and saturator keep pointers into `master`.
struct Ready {
  Relation master;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
};

std::unique_ptr<Ready> Setup(const Scenario& sc, const std::string& bytes,
                             Report* report) {
  auto ready = std::make_unique<Ready>();
  {
    CERTFIX_SPAN("relational.read_csv");
    Result<Relation> master = ParseCsv(sc.schema, bytes);
    if (!master.ok()) {
      report->Fail("master parse: " + master.status().ToString());
      return nullptr;
    }
    ready->master = std::move(master).ValueOrDie();
  }
  CERTFIX_SPAN("core.build_index");
  ready->index = std::make_unique<MasterIndex>(sc.rules, ready->master);
  ready->sat = std::make_unique<Saturator>(sc.rules, ready->master,
                                           *ready->index);
  return ready;
}

/// Runs one job (CSV bytes) and returns its output bytes (empty on a
/// parse error).
std::string RunJob(const Scenario& sc, const Saturator& sat,
                   const std::string& job, size_t threads,
                   BatchRepairResult* result) {
  Relation rel;
  {
    CERTFIX_SPAN("relational.read_csv");
    Result<Relation> parsed = ParseCsv(sc.schema, job);
    if (!parsed.ok()) return "";
    rel = std::move(parsed).ValueOrDie();
  }
  RepairOptions options;
  options.num_threads = threads;
  {
    CERTFIX_SPAN("core.repair");
    *result = BatchRepair(sat, options).Repair(rel, sc.trusted);
  }
  CERTFIX_SPAN("relational.write_csv");
  return CsvBytes(result->repaired);
}

/// Jobs covering the input in order, kJobRows rows each, as CSV bytes.
std::vector<std::string> MakeJobs(const Scenario& sc) {
  std::vector<std::vector<std::string>> rows = RenderRows(sc.initial);
  std::vector<std::string> jobs;
  for (size_t begin = 0; begin < rows.size(); begin += kJobRows) {
    size_t end = std::min(rows.size(), begin + kJobRows);
    std::vector<std::vector<std::string>> slice(rows.begin() + begin,
                                                rows.begin() + end);
    jobs.push_back(CsvBytes(RelationFromRows(sc.schema, slice).ValueOrDie()));
  }
  return jobs;
}

struct JobLoop {
  std::vector<uint64_t> latency_ns;
  size_t next = 0;                   ///< the next job to submit
  std::vector<std::string> outputs;  ///< per job index, first seen
};

/// Submits jobs in order from loop->next, wrapping around, until
/// `deadline_ns` has passed and at least `min_jobs` ran. Every repeat of
/// a job must reproduce its first output byte for byte.
void Loop(const Scenario& sc, const Saturator& sat,
          const std::vector<std::string>& jobs, uint64_t deadline_ns,
          size_t min_jobs, JobLoop* loop, Report* report) {
  loop->outputs.resize(jobs.size());
  for (size_t done = 0; done < min_jobs || NowNs() < deadline_ns; ++done) {
    const size_t j = loop->next++ % jobs.size();
    BatchRepairResult result;
    const uint64_t start = NowNs();
    std::string out = RunJob(sc, sat, jobs[j], kWorkers, &result);
    loop->latency_ns.push_back(NowNs() - start);
    report->CountOp(!out.empty());
    if (loop->outputs[j].empty()) {
      loop->outputs[j] = std::move(out);
    } else if (loop->outputs[j] != out) {
      report->Fail("job " + std::to_string(j) + " output changed on repeat");
    }
  }
}

/// From-scratch sequential BatchRepair of every kOracleStride-th job
/// seen, against the measured bytes.
void CheckOracle(const Scenario& sc, const Saturator& sat,
                 const std::vector<std::string>& jobs, const JobLoop& loop,
                 Report* report) {
  size_t checked = 0;
  for (size_t j = 0; j < jobs.size(); j += kOracleStride) {
    if (loop.outputs[j].empty()) continue;
    BatchRepairResult result;
    if (RunJob(sc, sat, jobs[j], 1, &result) != loop.outputs[j]) {
      report->Fail("job " + std::to_string(j) + " differs from the oracle");
    }
    ++checked;
  }
  if (checked == 0) report->Fail("no job reached the oracle");
}

}  // namespace

void RunBatchMiss(const Options& options, Report* report) {
  Result<Scenario> generated = Generate(Spec(options.seed), report);
  if (!generated.ok()) {
    report->Fail(generated.status().ToString());
    return;
  }
  const Scenario& sc = *generated;
  const std::string master_bytes = CsvBytes(sc.master);
  const std::vector<std::string> jobs = MakeJobs(sc);

  if (!options.trace) {
    const uint64_t start = NowNs();
    const double run_ns = options.seconds * 1e9;
    std::vector<uint64_t> setup_ns;
    std::unique_ptr<Ready> ready;
    JobLoop loop;
    for (size_t i = 0; i < kSetupRuns; ++i) {
      ready.reset();
      const uint64_t t0 = NowNs();
      ready = Setup(sc, master_bytes, report);
      setup_ns.push_back(NowNs() - t0);
      if (ready == nullptr) return;
      const uint64_t until =
          start + static_cast<uint64_t>(run_ns * static_cast<double>(i + 1) /
                                        kSetupRuns);
      Loop(sc, *ready->sat, jobs, until,
           (kMinTimedJobs + kSetupRuns - 1) / kSetupRuns, &loop, report);
    }
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("setup_s", MedianSeconds(setup_ns), "s");
    report->Set("batch_rows_per_s",
                MedianWindowRate(loop.latency_ns, kRateWindowJobs,
                                 static_cast<double>(kJobRows)),
                "rows/s");
    SetLatencyUs(loop.latency_ns, "job_latency", 0, report);
    CheckOracle(sc, *ready->sat, jobs, loop, report);
    return;
  }

  // Traced: the same fixed work (one set-up, one pass over the jobs)
  // untraced, then traced, for the overhead; layer numbers from the
  // traced pass.
  double untraced_s = 0;
  {
    const uint64_t t0 = NowNs();
    std::unique_ptr<Ready> ready = Setup(sc, master_bytes, report);
    if (ready == nullptr) return;
    JobLoop loop;
    Loop(sc, *ready->sat, jobs, 0, jobs.size(), &loop, report);
    untraced_s = Seconds(NowNs() - t0);
  }
  telemetry::ScopedRegistry registry;
  TracedPass pass;
  // Caller: 3 benchmark spans + batch.merge per job; each pool worker one
  // batch.shard_repair per job.
  pass.Start(16 * jobs.size() + 4096);
  JobLoop loop;
  std::unique_ptr<Ready> ready;
  uint64_t wall_ns = 0;
  {
    CERTFIX_SPAN("bench.phase");
    const uint64_t t0 = NowNs();
    ready = Setup(sc, master_bytes, report);
    if (ready != nullptr) {
      Loop(sc, *ready->sat, jobs, 0, jobs.size(), &loop, report);
    }
    wall_ns = NowNs() - t0;
  }
  pass.Finish(report);
  if (ready == nullptr) return;

  telemetry::Registry& reg = registry.registry();
  const double parse_s = pass.TotalSeconds("relational.read_csv");
  double parsed_bytes = static_cast<double>(master_bytes.size());
  for (const std::string& job : jobs) parsed_bytes += job.size();
  report->Set("relational.csv_parse_s", parse_s, "s");
  report->Set("relational.parse_mb_per_s", Ratio(parsed_bytes / 1e6, parse_s),
              "MB/s");
  report->Set("relational.csv_write_s",
              pass.TotalSeconds("relational.write_csv"), "s");
  report->Set("core.index_build_s", pass.TotalSeconds("core.build_index"),
              "s");
  report->Set("core.repair_s", pass.TotalSeconds("core.repair"), "s");
  SetCoreAndOverhead(reg, Count(reg, "batch.memo_hits"),
                     Count(reg, "batch.memo_misses"),
                     Count(reg, "batch.conflicting"), Seconds(wall_ns),
                     untraced_s, report);
  CheckOracle(sc, *ready->sat, jobs, loop, report);
}

}  // namespace perfbench
