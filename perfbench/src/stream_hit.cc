/// \file stream_hit.cc
/// \brief stream-hit: point-of-entry repair of a long stream against a
/// master small enough for L2, with input that nearly always repeats a
/// master row, so the per-shard memo answers almost every tuple and the
/// unique-fix check almost never runs. Field typing, admission, ring
/// hand-off, the reorder merge and the sink dominate.
///
/// One long-lived StreamRepairEngine (kShards shards, one producer, a
/// CSV sink). After a warm-up pass over the input fills the shard memos,
/// closed-loop passes push the input as fast as admission allows
/// (capacity), then an open loop offers tuples at a fixed rate and times
/// each from its due time to its sink Emit. The sink keeps a digest of
/// each input row's output bytes; the digests are compared with a
/// from-scratch BatchRepair only after everything timed and after the
/// memory high-water mark was read.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <thread>

#include "core/batch_repair.h"
#include "harness.h"
#include "relational/csv_stream.h"
#include "stream/stream_repair.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace certfix;

namespace {

constexpr size_t kMasterRows = 2000;
constexpr size_t kInputRows = 100000;
/// Shards besides the producer. The producer spins to send on time, so
/// it is a busy thread too; with four busy threads on the four-core
/// reference host each lost about a fifth of its time to preemption
/// (gaps up to 24 ms), against under 1% with three.
constexpr size_t kShards = 2;
/// Share of --seconds spent in closed-loop passes; the open loop gets
/// the rest.
constexpr double kClosedShare = 0.4;
/// Traced runs do fixed work: one closed pass and this much open loop.
constexpr double kTracedOpenSeconds = 1.5;

ScenarioSpec Spec(uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "stream-hit";
  spec.seed = seed;
  spec.master_rows = kMasterRows;
  spec.initial_rows = kInputRows;
  spec.num_deltas = 0;
  spec.duplicate_rate = 0.95;
  spec.popularity.kind = PopularityKind::kUniform;
  spec.errors.tuple_error_rate = 0.002;
  return spec;
}

/// 64-bit FNV-1a of a byte string.
uint64_t Digest(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// What the sink must have written: digests of the CSV header and of the
/// repaired line of each input row.
struct Oracle {
  uint64_t header = 0;
  std::vector<uint64_t> rows;
};

/// Output buffer that holds the bytes written since the last TakeDigest.
class CaptureBuf : public std::streambuf {
 public:
  /// Digest of the bytes written since the last call; forgets them.
  uint64_t TakeDigest() {
    const uint64_t digest = Digest(bytes_);
    bytes_.clear();
    return digest;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_.append(s, static_cast<size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      bytes_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }

 private:
  std::string bytes_;
};

/// CSV sink that digests the bytes CsvStreamSink writes for each record
/// and stamps emit times of one seq range. Record seq is input row
/// seq mod n: the digest of each row's first output is kept and a later
/// output that differs is counted, so checking costs memory per input
/// row, not per record, and needs no oracle while the run is timed.
class CheckedSink : public StreamSink {
 public:
  CheckedSink(SchemaPtr schema, size_t rows)
      : csv_(std::move(schema), out_), header_(buf_.TakeDigest()),
        num_rows_(rows) {}

  /// Stamps records [first, first + stamps->size()) from now on. Call
  /// only while the pipeline is drained.
  void StampFrom(uint64_t first, std::vector<uint64_t>* stamps) {
    first_ = first;
    stamps_ = stamps;
  }
  uint64_t emitted() const { return emitted_.load(std::memory_order_acquire); }

  void Emit(const StreamRecord& record) override {
    CERTFIX_SPAN("stream.sink_emit");
    csv_.Emit(record);
    const uint64_t digest = buf_.TakeDigest();
    if (rows_.empty()) {
      rows_.assign(num_rows_, 0);
      seen_.assign(num_rows_, 0);
    }
    const size_t row = record.seq % num_rows_;
    if (!seen_[row]) {
      rows_[row] = digest;
      seen_[row] = 1;
    } else if (rows_[row] != digest) {
      ++changed_;
    }
    if (stamps_ != nullptr && record.seq >= first_ &&
        record.seq - first_ < stamps_->size()) {
      (*stamps_)[record.seq - first_] = NowNs();
    }
    emitted_.fetch_add(1, std::memory_order_release);
  }

  /// After the engine finished: exactly `records` records arrived, the
  /// header and every row's output equal the oracle's, and no row's
  /// output changed on a repeat.
  bool Matches(const Oracle& oracle, uint64_t records) const {
    if (emitted() != records || header_ != oracle.header || changed_ != 0 ||
        oracle.rows.size() != num_rows_) {
      return false;
    }
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (seen_[i] && rows_[i] != oracle.rows[i]) return false;
    }
    return true;
  }

 private:
  // Declaration order is construction order: csv_ writes the header
  // into buf_ through out_, and header_ takes its digest.
  CaptureBuf buf_;
  std::ostream out_{&buf_};
  CsvStreamSink csv_;
  uint64_t header_;
  size_t num_rows_;
  std::vector<uint64_t> rows_;
  std::vector<char> seen_;
  uint64_t changed_ = 0;
  uint64_t first_ = 0;
  std::vector<uint64_t>* stamps_ = nullptr;
  std::atomic<uint64_t> emitted_{0};
};

/// The master structures and one running engine with its checking sink.
/// Heap-held: the index, saturator and engine keep pointers into it.
struct Session {
  Relation master;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
  std::unique_ptr<CheckedSink> sink;
  std::unique_ptr<StreamRepairEngine> engine;  ///< last: destroyed first
  uint64_t pushed = 0;

  void Push(const std::vector<std::string>& row, Report* report) {
    CERTFIX_SPAN("stream.push");
    const bool ok = engine->PushStrings(row).ok();
    report->CountOp(ok);
    if (ok) ++pushed;
  }

  /// Waits until the sink has every pushed record; false after 60 s
  /// without progress (a failed engine).
  bool WaitDrained() {
    uint64_t seen = sink->emitted();
    uint64_t since = NowNs();
    while (seen < pushed) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      const uint64_t now = sink->emitted();
      if (now != seen) {
        seen = now;
        since = NowNs();
      } else if (NowNs() - since > 60000000000ULL) {
        return false;
      }
    }
    return true;
  }
};

/// Master bytes to a running engine whose sink expects `rows` input rows.
std::unique_ptr<Session> Setup(const Scenario& sc, const std::string& bytes,
                               size_t rows, Report* report) {
  auto s = std::make_unique<Session>();
  {
    CERTFIX_SPAN("relational.read_csv");
    Result<Relation> master = ParseCsv(sc.schema, bytes);
    if (!master.ok()) {
      report->Fail("master parse: " + master.status().ToString());
      return nullptr;
    }
    s->master = std::move(master).ValueOrDie();
  }
  {
    CERTFIX_SPAN("core.build_index");
    s->index = std::make_unique<MasterIndex>(sc.rules, s->master);
    s->sat = std::make_unique<Saturator>(sc.rules, s->master, *s->index);
  }
  CERTFIX_SPAN("stream.start");
  s->sink = std::make_unique<CheckedSink>(sc.schema, rows);
  StreamOptions options;
  options.num_shards = kShards;
  s->engine = std::make_unique<StreamRepairEngine>(*s->sat, sc.trusted,
                                                   s->sink.get(), options);
  return s;
}

/// From-scratch BatchRepair of the input, parsed from its CSV bytes.
Oracle MakeOracle(const Scenario& sc, const std::string& master_bytes,
                  const std::string& input_bytes) {
  Oracle oracle;
  Result<Relation> master = ParseCsv(sc.schema, master_bytes);
  Result<Relation> input = ParseCsv(sc.schema, input_bytes);
  if (!master.ok() || !input.ok()) return oracle;
  MasterIndex index(sc.rules, *master);
  Saturator sat(sc.rules, *master, index);
  RepairOptions options;
  options.num_threads = kWorkers;
  BatchRepairResult result = BatchRepair(sat, options).Repair(*input,
                                                              sc.trusted);
  oracle.header = Digest(CsvBytes(Relation(sc.schema)));
  for (const std::string& line : CsvLines(result.repaired)) {
    oracle.rows.push_back(Digest(line));
  }
  return oracle;
}

std::vector<std::vector<std::string>> SplitRows(const std::string& bytes,
                                                Report* report) {
  std::vector<std::vector<std::string>> rows;
  BytesBuf buf(bytes);
  std::istream in(&buf);
  CsvRecordReader reader(in);
  std::vector<std::string> fields;
  bool header = true;
  for (;;) {
    Result<bool> got = reader.Next(&fields);
    if (!got.ok()) {
      report->Fail("input split: " + got.status().ToString());
      return {};
    }
    if (!*got) break;
    if (!header) rows.push_back(fields);
    header = false;
  }
  return rows;
}

/// Pushes every input row once as fast as admission allows and waits for
/// the sink; returns the wall time, 0 when the engine stopped.
uint64_t Pass(Session* s, const std::vector<std::vector<std::string>>& rows,
              Report* report) {
  const uint64_t t0 = NowNs();
  for (const std::vector<std::string>& row : rows) s->Push(row, report);
  if (!s->WaitDrained()) {
    report->Fail("stream engine stopped emitting");
    return 0;
  }
  return NowNs() - t0;
}

struct OpenLoop {
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> late_ns;
};

/// Offers `count` tuples (input rows in order) at `rate` per second. The
/// producer spins until each tuple is due; a push that blocks makes the
/// following sends late, and their latency counts from when they were
/// due. Starts on a drained pipeline, after whole passes, so tuple i is
/// input row i mod n.
OpenLoop RunOpen(Session* s, const std::vector<std::vector<std::string>>& rows,
                 uint64_t rate, size_t count, Report* report) {
  OpenLoop loop;
  std::vector<uint64_t> emit_ns(count, 0);
  s->sink->StampFrom(s->pushed, &emit_ns);
  const OpenLoopSchedule schedule(NowNs() + 1000000, rate);
  loop.late_ns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t due = schedule.Due(i);
    {
      CERTFIX_SPAN("workload.wait");
      while (NowNs() < due) {
      }
    }
    loop.late_ns.push_back(Lateness(due, NowNs()));
    s->Push(rows[i % rows.size()], report);
  }
  if (!s->WaitDrained()) report->Fail("stream engine stopped emitting");
  s->sink->StampFrom(0, nullptr);
  loop.latency_ns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    loop.latency_ns.push_back(SinceDue(schedule.Due(i), emit_ns[i]));
  }
  return loop;
}

StreamSnapshot Finish(Session* s) {
  CERTFIX_SPAN("stream.finish");
  return s->engine->Finish();
}

/// Every record the session's sink received was the oracle's.
void CheckSink(const Session& s, const Oracle& oracle, Report* report) {
  if (!s.sink->Matches(oracle, s.pushed)) {
    report->Fail("stream sink bytes differ from the oracle");
  }
}

}  // namespace

void RunStreamHit(const Options& options, Report* report) {
  if (options.stream_rate == 0) {
    report->Fail("stream-hit needs --stream-rate");
    return;
  }
  Result<Scenario> generated = Generate(Spec(options.seed), report);
  if (!generated.ok()) {
    report->Fail(generated.status().ToString());
    return;
  }
  const Scenario& sc = *generated;
  const std::string master_bytes = CsvBytes(sc.master);
  const std::string input_bytes = CsvBytes(sc.initial);
  const std::vector<std::vector<std::string>> rows =
      SplitRows(input_bytes, report);
  if (rows.size() != sc.initial.size() || rows.empty()) {
    report->Fail("input split lost rows");
    return;
  }

  if (!options.trace) {
    // Set-up is timed once before the warm-up and once more after each
    // closed pass (a spare engine, finished and dropped), so its median
    // samples the whole closed phase rather than one instant.
    std::vector<uint64_t> setup_ns;
    auto timed_setup = [&]() {
      const uint64_t t0 = NowNs();
      std::unique_ptr<Session> s =
          Setup(sc, master_bytes, rows.size(), report);
      setup_ns.push_back(NowNs() - t0);
      return s;
    };
    std::unique_ptr<Session> s = timed_setup();
    if (s == nullptr) return;
    Pass(s.get(), rows, report);  // warm-up: fills the shard memos
    const uint64_t start = NowNs();
    const uint64_t closed_until =
        start + static_cast<uint64_t>(options.seconds * kClosedShare * 1e9);
    std::vector<double> rates;
    while (rates.empty() || NowNs() < closed_until) {
      const uint64_t ns = Pass(s.get(), rows, report);
      if (ns == 0) return;
      rates.push_back(Ratio(static_cast<double>(rows.size()), Seconds(ns)));
      std::unique_ptr<Session> spare = timed_setup();
      if (spare == nullptr) return;
      Finish(spare.get());
    }
    const double open_s = options.seconds - Seconds(NowNs() - start);
    const size_t count = static_cast<size_t>(
        std::max(1.0, open_s) * static_cast<double>(options.stream_rate));
    OpenLoop open = RunOpen(s.get(), rows, options.stream_rate, count, report);
    Finish(s.get());
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("setup_s", MedianSeconds(setup_ns), "s");
    report->Set("stream_rows_per_s", Median(rates), "rows/s");
    report->Set("stream.closed_passes", static_cast<double>(rates.size()),
                "count");
    SetLatencyUs(open.latency_ns, "entry_latency", options.stream_rate / 2,
                 report);
    report->Set("workload.open_loop_late_p99_us",
                static_cast<double>(Summarize(open.late_ns).p99) / 1e3, "us");
    CheckSink(*s, MakeOracle(sc, master_bytes, input_bytes), report);
    return;
  }

  // Traced: one fixed unit of work (set-up, warm-up, one closed pass, a
  // short open loop, finish) untraced, then traced.
  const size_t open_count = static_cast<size_t>(
      kTracedOpenSeconds * static_cast<double>(options.stream_rate));
  OpenLoop open;
  StreamSnapshot snap;
  uint64_t warmup_ns = 0;
  auto unit = [&]() {
    std::unique_ptr<Session> s =
        Setup(sc, master_bytes, rows.size(), report);
    if (s == nullptr) return s;
    warmup_ns = Pass(s.get(), rows, report);
    Pass(s.get(), rows, report);
    open = RunOpen(s.get(), rows, options.stream_rate, open_count, report);
    snap = Finish(s.get());
    return s;
  };
  uint64_t t0 = NowNs();
  const std::unique_ptr<Session> untraced = unit();
  if (untraced == nullptr) return;
  const double untraced_s = Seconds(NowNs() - t0);

  telemetry::ScopedRegistry registry;
  TracedPass pass;
  // Per tuple: caller wait + push + stream.ingest; the emitting worker
  // stream.merge + stream.sink + stream.sink_emit. Two events a span.
  pass.Start(8 * (2 * rows.size() + open_count) + 4096);
  std::unique_ptr<Session> traced;
  uint64_t wall_ns = 0;
  {
    CERTFIX_SPAN("bench.phase");
    t0 = NowNs();
    traced = unit();
    wall_ns = NowNs() - t0;
  }
  pass.Finish(report);
  if (traced == nullptr) return;

  telemetry::Registry& reg = registry.registry();
  const double parse_s = pass.TotalSeconds("relational.read_csv");
  report->Set("relational.csv_parse_s", parse_s, "s");
  report->Set("relational.parse_mb_per_s",
              Ratio(static_cast<double>(master_bytes.size()) / 1e6, parse_s),
              "MB/s");
  report->Set("core.index_build_s", pass.TotalSeconds("core.build_index"),
              "s");
  SetCoreAndOverhead(reg, snap.memo_hits, snap.memo_misses, snap.conflicting,
                     Seconds(wall_ns), untraced_s, report);
  report->Set("stream.push_s", pass.TotalSeconds("stream.push"), "s");
  report->Set("stream.backpressure_waits",
              static_cast<double>(snap.backpressure_waits), "count");
  report->Set("stream.sink_s", pass.TotalSeconds("stream.sink_emit"), "s");
  report->Set("stream.finish_s", pass.TotalSeconds("stream.finish"), "s");
  report->Set("stream.warmup_s", Seconds(warmup_ns), "s");
  report->Set("stream.push_wait_p99_ns",
              static_cast<double>(Histo(reg, "queue_push_wait_ns").p99), "ns");
  report->Set("stream.max_reorder", static_cast<double>(snap.max_reorder),
              "count");
  report->Set("stream.pool_recycles", static_cast<double>(snap.pool_recycles),
              "count");
  report->Set("workload.open_loop_late_p99_us",
              static_cast<double>(Summarize(open.late_ns).p99) / 1e3, "us");
  const Oracle oracle = MakeOracle(sc, master_bytes, input_bytes);
  CheckSink(*untraced, oracle, report);
  CheckSink(*traced, oracle, report);
}

}  // namespace perfbench
