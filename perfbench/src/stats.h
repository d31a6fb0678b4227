/// \file stats.h
/// \brief The benchmark's own statistics: nearest-rank percentiles with
/// the "at least ten samples beyond" rule, open-loop schedule and
/// lateness accounting, and per-layer self-time attribution from span
/// traces. Pure functions with no dependency on the engines, so the unit
/// test (tests/stats_test.cc) checks them against hand-computed cases.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles. A percentile is given in per-mille (500 = p50, 990 = p99,
// 999 = p99.9) so every rank is computed in exact integer arithmetic.

/// Nearest-rank index (1-based) of the q-th per-mille percentile over n
/// samples: ceil(q * n / 1000), at least 1. n must be > 0.
size_t NearestRank(size_t n, unsigned q_permille);

/// Samples strictly above the nearest-rank percentile: n - rank.
size_t SamplesBeyond(size_t n, unsigned q_permille);

/// The tail percentiles a report may use, ascending.
extern const unsigned kTailPermilles[4];  // 500, 900, 990, 999

/// The highest of kTailPermilles with at least `min_beyond` samples
/// beyond it, or 0 when even the median has fewer.
unsigned HighestSupportedPermille(size_t n, size_t min_beyond = 10);

/// Median, the p99 and the highest supported tail of a latency sample
/// (values in nanoseconds).
struct LatencySummary {
  size_t count = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  bool p99_supported = false;  ///< >= 10 samples beyond p99
  unsigned tail_permille = 0;  ///< HighestSupportedPermille(count)
  uint64_t tail = 0;           ///< value at tail_permille
};
LatencySummary Summarize(std::vector<uint64_t> samples);

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Splits samples, in the order they were taken, into consecutive
/// windows of `window` samples (a shorter last window is dropped), takes
/// the nearest-rank q-th per-mille percentile of each window, and returns
/// the median of those. A stall of the host lifts the tail of the one or
/// two windows it falls in, not the reported value. 0 when no window is
/// complete.
double MedianWindowPercentile(const std::vector<uint64_t>& samples,
                              size_t window, unsigned q_permille);

/// Throughput of back-to-back operations: splits their durations (ns, in
/// order) into consecutive windows of `window` operations (a shorter last
/// window is dropped), and returns the median over windows of
/// window * items_per_op / (sum of the window's durations), per second.
/// A host stall slows the one window it falls in, not the reported rate.
double MedianWindowRate(const std::vector<uint64_t>& durations_ns,
                        size_t window, double items_per_op);

// ---------------------------------------------------------------------------
// Open loop. Requests are due on a fixed schedule whatever the system
// does; each is timed from when it was due, so a stall also delays every
// later request, and the generator's own lateness is reported apart.

class OpenLoopSchedule {
 public:
  /// `rate_per_s` > 0 requests per second, the first due at `start_ns`.
  OpenLoopSchedule(uint64_t start_ns, uint64_t rate_per_s)
      : start_ns_(start_ns), rate_(rate_per_s) {}
  /// Due time of request i: start + floor(i * 1e9 / rate).
  uint64_t Due(uint64_t i) const {
    return start_ns_ + i * 1000000000ULL / rate_;
  }

 private:
  uint64_t start_ns_;
  uint64_t rate_;
};

/// How late the generator sent a request: sent - due, or 0 when on time.
inline uint64_t Lateness(uint64_t due_ns, uint64_t sent_ns) {
  return sent_ns > due_ns ? sent_ns - due_ns : 0;
}

/// Latency from the due time to completion. Completion before the due
/// time cannot happen on a real clock and is clamped to 0.
inline uint64_t SinceDue(uint64_t due_ns, uint64_t done_ns) {
  return done_ns > due_ns ? done_ns - due_ns : 0;
}

// ---------------------------------------------------------------------------
// Span traces and attribution.

/// One begin ("B") or end ("E") event of a span.
struct TraceEvent {
  std::string name;
  char phase = 'B';
  uint64_t ts_ns = 0;
  uint32_t tid = 0;
};

/// Parses the trace-event JSON of telemetry::Tracer::ExportJson (one
/// event per line; timestamps in microseconds with three decimals).
/// Lines without an event are skipped.
std::vector<TraceEvent> ParseTraceEvents(const std::string& json);

/// The layer a span belongs to, from its name prefix: the benchmark's own
/// spans are named <module>.<call>, the program's own spans batch.*,
/// stream.*, delta.*, wal.* and snapshot.*. Unknown prefixes map to
/// "other".
std::string LayerOf(const std::string& span_name);

/// Per-name inclusive totals over every thread.
struct SpanTotal {
  uint64_t count = 0;
  uint64_t total_ns = 0;
};
std::map<std::string, SpanTotal> SpanTotals(
    const std::vector<TraceEvent>& events);

/// Wall time of the caller thread split into layer self times.
struct Attribution {
  uint64_t wall_ns = 0;          ///< total duration of the root spans
  uint64_t unattributed_ns = 0;  ///< self time of the root spans
  std::map<std::string, uint64_t> self_ns;  ///< by LayerOf(name)
  bool ok = false;  ///< root found and every span well nested

  double UnattributedFrac() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(unattributed_ns) /
                              static_cast<double>(wall_ns);
  }
};

/// Attributes the thread that recorded `root` spans: a span's self time
/// is its duration minus its direct children's durations, summed by
/// layer; the root spans' own self time is what no layer span covers.
/// Spans outside a root are ignored. By construction
/// sum(self_ns) + unattributed_ns == wall_ns.
Attribution Attribute(const std::vector<TraceEvent>& events,
                      const std::string& root);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
