/// \file harness.h
/// \brief What the three workloads share: run options, the report they
/// fill, byte helpers, process high-water memory, and the traced-run
/// plumbing around telemetry::Tracer.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "util/result.h"
#include "workload/scenario.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// stream-hit open-loop offered rate, tuples per second.
  uint64_t stream_rate = 0;
  /// Scratch directory for session files (inside the checkout).
  std::string work_dir;
};

/// Every engine call is made from one caller thread plus at most this
/// many workers or shards: four threads on the four-core reference host.
constexpr size_t kWorkers = 3;

/// Named metrics with units, plus the correctness verdict of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Fail(const std::string& why);
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  bool correct() const { return errors_.empty(); }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// One line of JSON: workload, seed, verdict, errors and metrics.
  std::string ToJson(const Options& options) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Monotonic nanoseconds (the clock the program's spans use).
uint64_t NowNs();
inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Process peak resident set (VmHWM), in MB.
double PeakRssMb();

/// Read-only istream buffer over bytes the caller keeps alive, so a parse
/// is timed without first copying its input.
class BytesBuf : public std::streambuf {
 public:
  explicit BytesBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

/// Parses CSV bytes with certfix::ReadCsv.
certfix::Result<certfix::Relation> ParseCsv(const certfix::SchemaPtr& schema,
                                            const std::string& bytes);
/// Renders a relation with certfix::WriteCsv.
std::string CsvBytes(const certfix::Relation& rel);
/// One CSV line per row, each as WriteCsv renders it (no header).
std::vector<std::string> CsvLines(const certfix::Relation& rel);

/// Generates the scenario (timed as workload.gen_s) and records the
/// rows and bytes of its master, input and delta log.
certfix::Result<certfix::Scenario> Generate(const certfix::ScenarioSpec& spec,
                                            Report* report);

/// Records <prefix>_p50_us and <prefix>_p99_us of a latency sample, in
/// microseconds, the sample count, and the highest percentile with ten
/// samples beyond it (<prefix>_tail_us at <prefix>_tail_permille). With
/// `window` > 0 the p99 is the
/// median of per-window p99s (MedianWindowPercentile; each window must
/// have >= 1000 samples so its p99 has ten beyond it) and the p99 of the
/// whole sample goes to <prefix>_p99_all_us. A p99 with fewer than ten
/// samples beyond it fails the run.
void SetLatencyUs(const std::vector<uint64_t>& samples_ns,
                  const std::string& prefix, size_t window, Report* report);
/// Per-layer variant: nearest-rank p50 and p99 of whatever was sampled
/// (the p99 of fewer than 100 samples is their maximum), never failing.
void SetLayerLatencyUs(const std::vector<uint64_t>& samples_ns,
                       const std::string& prefix, Report* report);

/// Median of a list of seconds.
double MedianSeconds(const std::vector<uint64_t>& ns);

/// Ratio guarded against an empty base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A traced pass: enables the program's Tracer with a per-thread event
/// budget, and on Finish exports, attributes and reports
///   <layer>.self_s, unattributed_frac, telemetry.spans_dropped.
/// The caller wraps the whole pass in a "bench.phase" span, opened after
/// Start and closed before Finish.
class TracedPass {
 public:
  void Start(size_t events_per_thread);
  /// Stops recording and reports attribution; fails the report when
  /// spans were dropped or did not nest.
  void Finish(Report* report);
  /// Inclusive total of one span name over every thread (after Finish).
  double TotalSeconds(const std::string& span) const;

 private:
  std::map<std::string, SpanTotal> totals_;
};

/// Histogram snapshot of a registry instrument (zeros when absent).
certfix::telemetry::HistogramSnapshot Histo(
    certfix::telemetry::Registry& registry, const char* name);
uint64_t Count(certfix::telemetry::Registry& registry, const char* name);

/// The per-layer metrics every traced workload reports alike: the core
/// layer's repair_tuple_ns p50/p99 and master_probe_batch_ns p50 from the
/// traced pass's registry, its memo hit ratio over `memo_hits` +
/// `memo_misses` lookups, its conflicting rows, and
/// telemetry.trace_overhead_frac of the traced unit of work against the
/// same unit untraced.
void SetCoreAndOverhead(certfix::telemetry::Registry& registry,
                        uint64_t memo_hits, uint64_t memo_misses,
                        uint64_t conflicting, double traced_s,
                        double untraced_s, Report* report);

// The three workloads. Each fills `report` with the end-to-end metrics
// (untraced) or the per-layer metrics of the layers it uses (traced).
void RunBatchMiss(const Options& options, Report* report);
void RunStreamHit(const Options& options, Report* report);
void RunDurableChurn(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
