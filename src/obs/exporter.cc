#include "obs/exporter.h"

#include <cinttypes>
#include <cstdio>
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

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"sama query\"}}";
  std::set<uint32_t> threads;
  for (const TraceSpan& span : profile.spans()) threads.insert(span.thread);
  for (uint32_t tid : threads) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(&out, tid);
    out += ",\"args\":{\"name\":\"";
    out += tid == 0 ? "query thread" : "worker " + std::to_string(tid);
    out += "\"}}";
  }
  for (const TraceSpan& span : profile.spans()) {
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
    if (span.parent != 0) {
      out += ",\"parent\":";
      AppendU64(&out, span.parent);
    }
    if (span.parent == 0) {
      // Root span carries the query-level facts.
      out += ",\"answers\":";
      AppendU64(&out, s.num_answers);
      out += ",\"query_paths\":";
      AppendU64(&out, s.num_query_paths);
      out += ",\"candidate_paths\":";
      AppendU64(&out, s.num_candidate_paths);
      out += ",\"truncated\":";
      out += s.search_truncated ? "true" : "false";
    }
    auto it = counters_by_name.find(span.name);
    if (it != counters_by_name.end()) {
      const ProfileCounters& c = *it->second;
      out += ",\"cache_hits\":";
      AppendU64(&out, c.cache_hits);
      out += ",\"cache_misses\":";
      AppendU64(&out, c.cache_misses);
      out += ",\"pages_fetched\":";
      AppendU64(&out, c.pages_fetched);
      out += ",\"pages_read\":";
      AppendU64(&out, c.pages_read);
      out += ",\"pages_evicted\":";
      AppendU64(&out, c.pages_evicted);
      out += ",\"bytes_read\":";
      AppendU64(&out, c.bytes_read);
      if (c.io_retries) {
        out += ",\"io_retries\":";
        AppendU64(&out, c.io_retries);
      }
      if (c.corrupt_skipped) {
        out += ",\"corrupt_skipped\":";
        AppendU64(&out, c.corrupt_skipped);
      }
      if (c.search_expansions) {
        out += ",\"expansions\":";
        AppendU64(&out, c.search_expansions);
      }
      counters_by_name.erase(it);  // First span of the group only.
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string RenderSpansChromeTrace(const std::vector<TraceSpan>& spans,
                                   const std::string& trace_id) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"sama trace ";
  out += JsonEscape(trace_id);
  out += "\"}}";
  std::set<uint32_t> threads;
  for (const TraceSpan& span : spans) threads.insert(span.thread);
  for (uint32_t tid : threads) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(&out, tid);
    out += ",\"args\":{\"name\":\"";
    out += tid == 0 ? "request thread" : "worker " + std::to_string(tid);
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
    if (span.parent != 0) {
      out += ",\"parent\":";
      AppendU64(&out, span.parent);
    }
    for (const auto& [key, value] : span.attrs) {
      out += ",\"";
      out += JsonEscape(key);
      out += "\":\"";
      out += JsonEscape(value);
      out += "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
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
