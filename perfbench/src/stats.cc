#include "stats.h"

#include <algorithm>

namespace perfbench {

const unsigned kTailPermilles[4] = {500, 900, 990, 999};

size_t NearestRank(size_t n, unsigned q_permille) {
  size_t rank = (static_cast<uint64_t>(q_permille) * n + 999) / 1000;
  return rank == 0 ? 1 : rank;
}

size_t SamplesBeyond(size_t n, unsigned q_permille) {
  return n == 0 ? 0 : n - NearestRank(n, q_permille);
}

unsigned HighestSupportedPermille(size_t n, size_t min_beyond) {
  unsigned best = 0;
  for (unsigned q : kTailPermilles) {
    if (n > 0 && SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

LatencySummary Summarize(std::vector<uint64_t> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](unsigned q) { return samples[NearestRank(s.count, q) - 1]; };
  s.p50 = at(500);
  s.p99 = at(990);
  s.p99_supported = SamplesBeyond(s.count, 990) >= 10;
  s.tail_permille = HighestSupportedPermille(s.count);
  s.tail = s.tail_permille == 0 ? 0 : at(s.tail_permille);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double MedianWindowPercentile(const std::vector<uint64_t>& samples,
                              size_t window, unsigned q_permille) {
  std::vector<double> per_window;
  for (size_t begin = 0; window > 0 && begin + window <= samples.size();
       begin += window) {
    std::vector<uint64_t> w(samples.begin() + begin,
                            samples.begin() + begin + window);
    std::sort(w.begin(), w.end());
    per_window.push_back(
        static_cast<double>(w[NearestRank(window, q_permille) - 1]));
  }
  return Median(per_window);
}

double MedianWindowRate(const std::vector<uint64_t>& durations_ns,
                        size_t window, double items_per_op) {
  std::vector<double> rates;
  for (size_t begin = 0; window > 0 && begin + window <= durations_ns.size();
       begin += window) {
    uint64_t ns = 0;
    for (size_t i = begin; i < begin + window; ++i) ns += durations_ns[i];
    if (ns > 0) {
      rates.push_back(static_cast<double>(window) * items_per_op * 1e9 /
                      static_cast<double>(ns));
    }
  }
  return Median(rates);
}

namespace {

// Reads the quoted string after `key` ("name": "..."), or "" if absent.
std::string QuotedField(const std::string& line, const char* key) {
  size_t at = line.find(key);
  if (at == std::string::npos) return "";
  size_t open = line.find('"', at + std::char_traits<char>::length(key));
  if (open == std::string::npos) return "";
  size_t close = line.find('"', open + 1);
  if (close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

// Reads the unsigned decimal after `key`, stopping at the first
// non-digit; `frac` receives up to three digits after a '.'.
bool NumberField(const std::string& line, const char* key, uint64_t* whole,
                 uint64_t* frac) {
  size_t at = line.find(key);
  if (at == std::string::npos) return false;
  size_t i = at + std::char_traits<char>::length(key);
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  *whole = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    *whole = *whole * 10 + static_cast<uint64_t>(line[i] - '0');
    ++i;
  }
  if (frac != nullptr) {
    *frac = 0;
    if (i < line.size() && line[i] == '.') {
      ++i;
      for (int d = 0; d < 3; ++d) {
        uint64_t digit = 0;
        if (i < line.size() && line[i] >= '0' && line[i] <= '9') {
          digit = static_cast<uint64_t>(line[i] - '0');
          ++i;
        }
        *frac = *frac * 10 + digit;
      }
    }
  }
  return true;
}

}  // namespace

std::vector<TraceEvent> ParseTraceEvents(const std::string& json) {
  std::vector<TraceEvent> events;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    TraceEvent e;
    e.name = QuotedField(line, "\"name\":");
    std::string phase = QuotedField(line, "\"ph\":");
    uint64_t us = 0, ns = 0, tid = 0;
    if (e.name.empty() || phase.size() != 1 ||
        !NumberField(line, "\"ts\":", &us, &ns) ||
        !NumberField(line, "\"tid\":", &tid, nullptr)) {
      continue;
    }
    e.phase = phase[0];
    e.ts_ns = us * 1000 + ns;
    e.tid = static_cast<uint32_t>(tid);
    events.push_back(std::move(e));
  }
  return events;
}

std::string LayerOf(const std::string& span_name) {
  static const std::map<std::string, std::string> kLayers = {
      {"relational", "relational"}, {"core", "core"},
      {"batch", "core"},            {"stream", "stream"},
      {"incremental", "incremental"}, {"delta", "incremental"},
      {"storage", "storage"},       {"wal", "storage"},
      {"snapshot", "storage"},      {"telemetry", "telemetry"},
      {"workload", "workload"},
  };
  auto it = kLayers.find(span_name.substr(0, span_name.find('.')));
  return it == kLayers.end() ? "other" : it->second;
}

std::map<std::string, SpanTotal> SpanTotals(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, SpanTotal> totals;
  std::map<uint32_t, std::vector<const TraceEvent*>> open;  // per thread
  for (const TraceEvent& e : events) {
    std::vector<const TraceEvent*>& stack = open[e.tid];
    if (e.phase == 'B') {
      stack.push_back(&e);
    } else if (!stack.empty()) {
      const TraceEvent* b = stack.back();
      stack.pop_back();
      SpanTotal& t = totals[b->name];
      ++t.count;
      t.total_ns += e.ts_ns - b->ts_ns;
    }
  }
  return totals;
}

Attribution Attribute(const std::vector<TraceEvent>& events,
                      const std::string& root) {
  Attribution a;
  uint32_t tid = 0;
  bool found = false;
  for (const TraceEvent& e : events) {
    if (e.phase == 'B' && e.name == root) {
      tid = e.tid;
      found = true;
      break;
    }
  }
  if (!found) return a;

  struct Open {
    const TraceEvent* begin;
    uint64_t children_ns;
  };
  std::vector<Open> stack;
  size_t ignored_depth = 0;  // > 0 inside a span outside every root
  bool nested = true;
  for (const TraceEvent& e : events) {
    if (e.tid != tid) continue;
    if (ignored_depth > 0) {
      ignored_depth = e.phase == 'B' ? ignored_depth + 1 : ignored_depth - 1;
      continue;
    }
    if (e.phase == 'B') {
      if (stack.empty() && e.name != root) {
        ignored_depth = 1;
      } else {
        stack.push_back({&e, 0});
      }
      continue;
    }
    if (stack.empty()) {
      nested = false;
      continue;
    }
    Open top = stack.back();
    stack.pop_back();
    if (e.ts_ns < top.begin->ts_ns) {
      nested = false;
      continue;
    }
    const uint64_t dur = e.ts_ns - top.begin->ts_ns;
    const uint64_t self = dur >= top.children_ns ? dur - top.children_ns : 0;
    if (top.children_ns > dur) nested = false;
    if (stack.empty()) {  // a root closed
      a.wall_ns += dur;
      a.unattributed_ns += self;
    } else {
      a.self_ns[LayerOf(top.begin->name)] += self;
      stack.back().children_ns += dur;
    }
  }
  a.ok = nested && stack.empty() && a.wall_ns > 0;
  return a;
}

}  // namespace perfbench
