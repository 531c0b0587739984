// Measurement helpers for the served-LUBM benchmark: order statistics,
// /proc readers, registry snapshots, and the span bookkeeping of the
// traced run (self times per span name and the spans of its Perfetto
// file). Everything here observes the program from outside: it reads
// the spans and counters the library already records.
#ifndef SERVEBENCH_TRACE_REPORT_H_
#define SERVEBENCH_TRACE_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace servebench {

// ---- Order statistics.

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// Samples strictly beyond the nearest-rank q-quantile.
inline size_t SamplesBeyond(size_t n, double q) {
  size_t at = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- /proc readers.

// A "Vm...:  N kB" field of /proc/self/status, in MiB.
inline double ProcStatusMiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

// Aggregate CPU jiffies from /proc/stat: steal and the total.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
inline CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is
  // already folded into user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}
inline double StealShare(const CpuTimes& a, const CpuTimes& b) {
  return Ratio(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// ---- Registry snapshots. Series are addressed by name plus rendered
// labels, e.g. sama_query_phase_millis{phase="search"}.
class RegistrySnapshot {
 public:
  RegistrySnapshot() = default;
  explicit RegistrySnapshot(const sama::MetricsRegistry& registry) {
    for (sama::MetricSample& s : registry.Collect()) {
      samples_[s.Key()] = std::move(s);
    }
  }
  double Value(const std::string& key) const {
    auto it = samples_.find(key);
    return it == samples_.end() ? 0 : it->second.value;
  }
  double HistCount(const std::string& key) const {
    auto it = samples_.find(key);
    return it == samples_.end() ? 0 : static_cast<double>(it->second.count);
  }
  double HistSum(const std::string& key) const {
    auto it = samples_.find(key);
    return it == samples_.end() ? 0 : it->second.sum;
  }

 private:
  std::map<std::string, sama::MetricSample> samples_;
};

// Deltas between two snapshots of one registry.
struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;
  double Counter(const std::string& key) const {
    return after.Value(key) - before.Value(key);
  }
  double Count(const std::string& key) const {
    return after.HistCount(key) - before.HistCount(key);
  }
  // Mean observation of a histogram over the window; 0 when empty.
  double HistMean(const std::string& key) const {
    return Ratio(after.HistSum(key) - before.HistSum(key), Count(key));
  }
};

// ---- Spans of the traced run.

// Per span name: how often it ran, its summed duration and its summed
// self time (duration minus the part of it its children cover).
struct LayerRow {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class LayerTable {
 public:
  // Adds one trace's spans. Children are found by parent id; a child
  // interval is clipped to its parent before the union is taken, so
  // overlapping children on pool workers are not double-counted.
  void AddTrace(const std::vector<sama::TraceSpan>& spans) {
    std::map<uint64_t, std::vector<const sama::TraceSpan*>> children;
    for (const sama::TraceSpan& s : spans) children[s.parent].push_back(&s);
    for (const sama::TraceSpan& s : spans) {
      if (s.duration_millis < 0) continue;  // Still open; not ours.
      double lo = s.start_millis;
      double hi = s.start_millis + s.duration_millis;
      std::vector<std::pair<double, double>> iv;
      auto it = children.find(s.id);
      if (it != children.end()) {
        for (const sama::TraceSpan* c : it->second) {
          if (c->duration_millis < 0) continue;
          double a = std::max(lo, c->start_millis);
          double b = std::min(hi, c->start_millis + c->duration_millis);
          if (b > a) iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      double end = lo;
      for (const auto& [a, b] : iv) {
        double from = std::max(a, end);
        if (b > from) covered += b - from;
        end = std::max(end, b);
      }
      Add(s.name, s.duration_millis, s.duration_millis - covered);
    }
  }

  void Add(const std::string& name, double total_ms, double self_ms) {
    LayerRow& row = rows_[name];
    ++row.count;
    row.total_ms += total_ms;
    row.self_ms += std::max(0.0, self_ms);
  }

  void Merge(const LayerTable& other) {
    for (const auto& [name, row] : other.rows_) {
      LayerRow& mine = rows_[name];
      mine.count += row.count;
      mine.total_ms += row.total_ms;
      mine.self_ms += row.self_ms;
    }
  }

  // Mean duration per occurrence of `name`, or per `per` occurrences
  // when given (a phase that runs once per request, averaged over
  // requests). 0 when absent. Self times are in rows().
  double MeanTotal(const std::string& name, double per = 0) const {
    auto it = rows_.find(name);
    if (it == rows_.end()) return 0;
    return Ratio(it->second.total_ms,
                 per > 0 ? per : static_cast<double>(it->second.count));
  }
  const std::map<std::string, LayerRow>& rows() const { return rows_; }

 private:
  std::map<std::string, LayerRow> rows_;
};

// Spans kept for the Perfetto file, on the benchmark's timeline (times
// since its anchor). The benchmark's own spans (set-up calls, client
// round trips, codec calls) and the server-side spans a propagated trace
// id collects share one id space. Only the first `cap` are kept: the
// layer table aggregates every span, the file is for looking at a few
// hundred requests.
class SpanLog {
 public:
  explicit SpanLog(size_t cap) : cap_(cap) {}

  uint64_t NewId() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  bool full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size() >= cap_;
  }
  void Add(sama::TraceSpan span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < cap_) spans_.push_back(std::move(span));
  }

  // Appends one server-side trace, re-keyed into this log's id space.
  // The server's root span names the client span as its parent;
  // QueryTrace times are relative to that trace's own creation, so the
  // caller passes the offset that places them on the benchmark timeline.
  void AddServerTrace(const std::vector<sama::TraceSpan>& spans,
                      double offset_ms, uint32_t thread_base) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() + spans.size() > cap_) return;
    std::map<uint64_t, uint64_t> remap;
    for (const sama::TraceSpan& s : spans) remap[s.id] = next_id_++;
    for (sama::TraceSpan s : spans) {
      s.id = remap[s.id];
      auto p = remap.find(s.parent);
      if (p != remap.end()) s.parent = p->second;
      s.start_millis += offset_ms;
      s.thread += thread_base;
      spans_.push_back(std::move(s));
    }
  }

  std::vector<sama::TraceSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const size_t cap_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<sama::TraceSpan> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_REPORT_H_
