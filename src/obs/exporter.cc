#include "obs/exporter.h"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "common/string_util.h"

namespace sama {
namespace {

std::string Millis(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", v);
  return buf;
}

// Micros for the trace-event timebase (ts/dur are microseconds).
std::string Micros(double millis) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", millis * 1000.0);
  return buf;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

// `,"key":v` — one numeric trace-event arg.
void AppendArg(std::string* out, const char* key, uint64_t v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  AppendU64(out, v);
}

// " [cache 34 hit / 3 miss, pages 12 fetched / 2 read / 1 evicted,
//    8.0 KB read, io 2 retried / 1 corrupt, 840 expansions]"
std::string CounterText(const ProfileCounters& c) {
  std::vector<std::string> parts;
  if (c.cache_hits || c.cache_misses) {
    std::string s = "cache ";
    AppendU64(&s, c.cache_hits);
    s += " hit / ";
    AppendU64(&s, c.cache_misses);
    s += " miss";
    parts.push_back(std::move(s));
  }
  if (c.pages_fetched || c.pages_read || c.pages_evicted) {
    std::string s = "pages ";
    AppendU64(&s, c.pages_fetched);
    s += " fetched / ";
    AppendU64(&s, c.pages_read);
    s += " read / ";
    AppendU64(&s, c.pages_evicted);
    s += " evicted";
    parts.push_back(std::move(s));
  }
  if (c.bytes_read) parts.push_back(HumanBytes(c.bytes_read) + " read");
  if (c.io_retries || c.corrupt_skipped) {
    std::string s = "io ";
    AppendU64(&s, c.io_retries);
    s += " retried / ";
    AppendU64(&s, c.corrupt_skipped);
    s += " corrupt";
    parts.push_back(std::move(s));
  }
  if (c.search_expansions) {
    std::string s;
    AppendU64(&s, c.search_expansions);
    s += " expansions";
    parts.push_back(std::move(s));
  }
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += parts[i];
  }
  return out;
}

void RenderNode(const QueryProfile& profile, size_t index,
                const std::string& prefix, const std::string& child_prefix,
                std::string* out) {
  const ProfileNode& node = profile.nodes()[index];
  *out += prefix + node.name + "  (wall " + Millis(node.wall_millis) +
          ", self " + Millis(node.self_millis);
  if (node.spans > 1) {
    *out += ", ";
    AppendU64(out, node.spans);
    *out += " spans";
  }
  if (node.threads > 1) {
    *out += " on ";
    AppendU64(out, node.threads);
    *out += " threads";
  }
  *out += ")\n";
  if (node.counters.any()) {
    *out += child_prefix + "  [" + CounterText(node.counters) + "]\n";
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    bool last = i + 1 == node.children.size();
    RenderNode(profile, node.children[i],
               child_prefix + (last ? "└─ " : "├─ "),
               child_prefix + (last ? "   " : "│  "), out);
  }
}

// The trace-event JSON both Chrome-trace renderers emit: the envelope,
// process_name and thread_name metadata (thread 0 is
// `first_thread_name`, the others workers), then one complete ("ph":"X")
// event per span with span_id/parent args, to which `extra_args`
// appends the span's own.
std::string RenderTraceEvents(
    const std::vector<TraceSpan>& spans, const std::string& process_name,
    const char* first_thread_name,
    const std::function<void(const TraceSpan&, std::string*)>& extra_args) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"";
  out += JsonEscape(process_name);
  out += "\"}}";
  std::set<uint32_t> threads;
  for (const TraceSpan& span : spans) threads.insert(span.thread);
  for (uint32_t tid : threads) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(&out, tid);
    out += ",\"args\":{\"name\":\"";
    out += tid == 0 ? first_thread_name : "worker " + std::to_string(tid);
    out += "\"}}";
  }
  for (const TraceSpan& span : spans) {
    out += ",\n{\"name\":\"";
    out += JsonEscape(span.name);
    out += "\",\"cat\":\"sama\",\"ph\":\"X\",\"ts\":";
    out += Micros(span.start_millis);
    out += ",\"dur\":";
    out += Micros(span.duration_millis < 0 ? 0.0 : span.duration_millis);
    out += ",\"pid\":1,\"tid\":";
    AppendU64(&out, span.thread);
    out += ",\"args\":{\"span_id\":";
    AppendU64(&out, span.id);
    if (span.parent != 0) AppendArg(&out, "parent", span.parent);
    extra_args(span, &out);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

std::string RenderExplainAnalyze(const QueryProfile& profile) {
  const ProfileSummary& s = profile.summary();
  std::string out = "EXPLAIN ANALYZE";
  if (!s.label.empty()) out += "  " + s.label;
  out += "\n  answers: ";
  AppendU64(&out, s.num_answers);
  out += "   query paths: ";
  AppendU64(&out, s.num_query_paths);
  out += "   candidate paths: ";
  AppendU64(&out, s.num_candidate_paths);
  out += "   threads: ";
  AppendU64(&out, s.threads_used);
  out += "\n  total: " + Millis(s.total_millis);
  if (s.search_truncated) out += "   [TRUNCATED by the anytime budget]";
  out += "\n";
  for (size_t root : profile.roots()) {
    RenderNode(profile, root, "", "", &out);
  }
  return out;
}

std::string RenderChromeTrace(const QueryProfile& profile) {
  // Phase counters rendered as args on the FIRST span of each
  // counter-carrying node name (the aggregated node folds its
  // same-name siblings, so the first span stands for the group).
  std::unordered_map<std::string, const ProfileCounters*> counters_by_name;
  for (const ProfileNode& node : profile.nodes()) {
    if (node.counters.any()) counters_by_name.emplace(node.name, &node.counters);
  }
  const ProfileSummary& s = profile.summary();
  return RenderTraceEvents(
      profile.spans(), "sama query", "query thread",
      [&](const TraceSpan& span, std::string* out) {
        if (span.parent == 0) {
          // Root span carries the query-level facts.
          AppendArg(out, "answers", s.num_answers);
          AppendArg(out, "query_paths", s.num_query_paths);
          AppendArg(out, "candidate_paths", s.num_candidate_paths);
          *out += ",\"truncated\":";
          *out += s.search_truncated ? "true" : "false";
        }
        auto it = counters_by_name.find(span.name);
        if (it == counters_by_name.end()) return;
        const ProfileCounters& c = *it->second;
        AppendArg(out, "cache_hits", c.cache_hits);
        AppendArg(out, "cache_misses", c.cache_misses);
        AppendArg(out, "pages_fetched", c.pages_fetched);
        AppendArg(out, "pages_read", c.pages_read);
        AppendArg(out, "pages_evicted", c.pages_evicted);
        AppendArg(out, "bytes_read", c.bytes_read);
        if (c.io_retries) AppendArg(out, "io_retries", c.io_retries);
        if (c.corrupt_skipped) {
          AppendArg(out, "corrupt_skipped", c.corrupt_skipped);
        }
        if (c.search_expansions) {
          AppendArg(out, "expansions", c.search_expansions);
        }
        counters_by_name.erase(it);  // First span of the group only.
      });
}

std::string RenderSpansChromeTrace(const std::vector<TraceSpan>& spans,
                                   const std::string& trace_id) {
  return RenderTraceEvents(
      spans, "sama trace " + trace_id, "request thread",
      [](const TraceSpan& span, std::string* out) {
        for (const auto& [key, value] : span.attrs) {
          *out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
        }
      });
}

void RefreshLatencyQuantiles(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  static constexpr struct {
    double q;
    const char* text;
  } kQuantiles[] = {{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}};

  auto publish = [&](Histogram* hist, const char* gauge_name,
                     const char* help, MetricLabels base_labels) {
    if (hist == nullptr || hist->Count() == 0) return;
    for (const auto& quantile : kQuantiles) {
      MetricLabels labels = base_labels;
      labels.emplace_back("quantile", quantile.text);
      Gauge* gauge = registry->GetGauge(gauge_name, help, std::move(labels));
      if (gauge != nullptr) {
        gauge->Set(hist->Quantile(quantile.q) / 1000.0);
      }
    }
  };

  auto bounds = Histogram::LatencyBucketsMillis();
  publish(registry->GetHistogram("sama_query_latency_millis",
                                 "End-to-end query latency.", bounds),
          "sama_query_latency_seconds",
          "End-to-end query latency quantiles (seconds), interpolated "
          "from the histogram at scrape time.",
          {});
  for (const char* phase : {"preprocess", "clustering", "search"}) {
    publish(registry->GetHistogram("sama_query_phase_millis",
                                   "Per-phase query latency.", bounds,
                                   {{"phase", phase}}),
            "sama_query_phase_seconds",
            "Per-phase query latency quantiles (seconds), interpolated "
            "from the histogram at scrape time.",
            {{"phase", phase}});
  }
}

void RefreshEpochMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const EpochManager::Stats s = EpochManager::Global()->stats();
  Gauge* current = registry->GetGauge(
      "sama_epoch_current", "Current global reclamation epoch.");
  if (current != nullptr) current->Set(static_cast<double>(s.epoch));
  Gauge* pins = registry->GetGauge(
      "sama_epoch_pins", "Lifetime epoch pin operations (EpochGuard).");
  if (pins != nullptr) pins->Set(static_cast<double>(s.pins));
  Gauge* pending = registry->GetGauge(
      "sama_epoch_pending_reclaims",
      "Retired objects whose grace period has not yet passed; unbounded "
      "growth means a reader is stuck pinned.");
  if (pending != nullptr) pending->Set(static_cast<double>(s.pending()));
}

std::string RenderMetricsScrape(MetricsRegistry* registry) {
  RefreshLatencyQuantiles(registry);
  RefreshEpochMetrics(registry);
  return registry->RenderText();
}

}  // namespace sama
