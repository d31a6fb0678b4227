#include "harness.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "relational/csv.h"
#include "telemetry/trace.h"

namespace perfbench {

using certfix::Relation;
using certfix::Result;
using certfix::Scenario;
namespace telemetry = certfix::telemetry;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Fail(const std::string& why) { errors_.push_back(why); }

std::string Report::ToJson(const Options& options) const {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(errors_[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << m.value << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

uint64_t NowNs() { return telemetry::NowNanos(); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

Result<Relation> ParseCsv(const certfix::SchemaPtr& schema,
                          const std::string& bytes) {
  BytesBuf buf(bytes);
  std::istream in(&buf);
  return certfix::ReadCsv(schema, in);
}

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  if (!certfix::WriteCsv(rel, out).ok()) return "";
  return out.str();
}

std::vector<std::string> CsvLines(const Relation& rel) {
  std::vector<std::string> lines;
  lines.reserve(rel.size());
  for (const std::vector<std::string>& fields : certfix::RenderRows(rel)) {
    lines.push_back(certfix::FormatCsvLine(fields) + "\n");
  }
  return lines;
}

Result<Scenario> Generate(const certfix::ScenarioSpec& spec, Report* report) {
  uint64_t t0 = NowNs();
  Result<Scenario> sc = certfix::GenerateScenario(spec);
  report->Set("workload.gen_s", Seconds(NowNs() - t0), "s");
  if (!sc.ok()) return sc;
  const std::string log = certfix::DeltaLogToString(*sc);
  report->Set("workload.master_rows", static_cast<double>(sc->master.size()),
              "count");
  report->Set("workload.master_bytes",
              static_cast<double>(CsvBytes(sc->master).size()), "bytes");
  report->Set("workload.input_rows", static_cast<double>(sc->initial.size()),
              "count");
  report->Set("workload.input_bytes",
              static_cast<double>(CsvBytes(sc->initial).size()), "bytes");
  report->Set("workload.delta_rows", static_cast<double>(sc->deltas.size()),
              "count");
  report->Set("workload.delta_bytes", static_cast<double>(log.size()),
              "bytes");
  return sc;
}

void SetLatencyUs(const std::vector<uint64_t>& samples_ns,
                  const std::string& prefix, size_t window, Report* report) {
  const LatencySummary s = Summarize(samples_ns);
  report->Set(prefix + "_p50_us", static_cast<double>(s.p50) / 1e3, "us");
  report->Set(prefix + "_samples", static_cast<double>(s.count), "count");
  report->Set(prefix + "_tail_us", static_cast<double>(s.tail) / 1e3, "us");
  report->Set(prefix + "_tail_permille", s.tail_permille, "permille");
  if (window == 0) {
    if (!s.p99_supported) report->Fail(prefix + ": too few samples for p99");
    report->Set(prefix + "_p99_us", static_cast<double>(s.p99) / 1e3, "us");
    return;
  }
  if (window < 1000 || samples_ns.size() < window) {
    report->Fail(prefix + ": too few samples for windowed p99");
  }
  report->Set(prefix + "_p99_us",
              MedianWindowPercentile(samples_ns, window, 990) / 1e3, "us");
  report->Set(prefix + "_p99_all_us", static_cast<double>(s.p99) / 1e3, "us");
}

void SetLayerLatencyUs(const std::vector<uint64_t>& samples_ns,
                       const std::string& prefix, Report* report) {
  const LatencySummary s = Summarize(samples_ns);
  report->Set(prefix + "_p50_us", static_cast<double>(s.p50) / 1e3, "us");
  report->Set(prefix + "_p99_us", static_cast<double>(s.p99) / 1e3, "us");
  report->Set(prefix + "_samples", static_cast<double>(s.count), "count");
}

double MedianSeconds(const std::vector<uint64_t>& ns) {
  std::vector<double> s;
  for (uint64_t v : ns) s.push_back(Seconds(v));
  return Median(s);
}

void TracedPass::Start(size_t events_per_thread) {
  telemetry::Tracer::Global().Enable(events_per_thread);
}

void TracedPass::Finish(Report* report) {
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.Disable();
  const uint64_t dropped = tracer.dropped();
  const std::vector<TraceEvent> events = ParseTraceEvents(tracer.ExportJson());
  totals_ = SpanTotals(events);
  Attribution a = Attribute(events, "bench.phase");
  report->Set("telemetry.spans_dropped", static_cast<double>(dropped),
              "count");
  if (dropped != 0) {
    report->Fail("tracer dropped " + std::to_string(dropped) + " spans");
  }
  if (!a.ok) report->Fail("trace spans of the caller thread do not nest");
  report->Set("unattributed_frac", a.UnattributedFrac(), "ratio");
  report->Set("trace.wall_s", Seconds(a.wall_ns), "s");
  for (const char* layer :
       {"relational", "core", "stream", "incremental", "storage", "workload"}) {
    auto it = a.self_ns.find(layer);
    report->Set(std::string(layer) + ".self_s",
                Seconds(it == a.self_ns.end() ? 0 : it->second), "s");
  }
}

double TracedPass::TotalSeconds(const std::string& span) const {
  auto it = totals_.find(span);
  return it == totals_.end() ? 0 : Seconds(it->second.total_ns);
}

telemetry::HistogramSnapshot Histo(telemetry::Registry& registry,
                                   const char* name) {
  return registry.GetHistogram(name)->Snap();
}

uint64_t Count(telemetry::Registry& registry, const char* name) {
  return registry.GetCounter(name)->Value();
}

void SetCoreAndOverhead(telemetry::Registry& registry, uint64_t memo_hits,
                        uint64_t memo_misses, uint64_t conflicting,
                        double traced_s, double untraced_s, Report* report) {
  const telemetry::HistogramSnapshot tuple = Histo(registry, "repair_tuple_ns");
  report->Set("core.repair_tuple_p50_ns", static_cast<double>(tuple.p50),
              "ns");
  report->Set("core.repair_tuple_p99_ns", static_cast<double>(tuple.p99),
              "ns");
  report->Set("core.probe_batch_p50_ns",
              static_cast<double>(Histo(registry, "master_probe_batch_ns").p50),
              "ns");
  const double hits = static_cast<double>(memo_hits);
  const double lookups = hits + static_cast<double>(memo_misses);
  report->Set("core.memo_hit_ratio", Ratio(hits, lookups), "ratio");
  report->Set("core.memo_lookups", lookups, "count");
  report->Set("core.memo_misses", static_cast<double>(memo_misses), "count");
  report->Set("core.conflicting_rows", static_cast<double>(conflicting),
              "count");
  report->Set("telemetry.trace_overhead_frac",
              Ratio(traced_s - untraced_s, untraced_s), "ratio");
}

}  // namespace perfbench
