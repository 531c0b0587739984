#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace sama {
namespace {

double WallSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

const MetricSample* FindSample(const std::vector<MetricSample>& samples,
                               std::string_view key) {
  for (const MetricSample& s : samples) {
    if (s.name.size() + s.labels.size() == key.size() &&
        key.compare(0, s.name.size(), s.name) == 0 &&
        key.compare(s.name.size(), s.labels.size(), s.labels) == 0) {
      return &s;
    }
  }
  return nullptr;
}

// Sum of values across every series of one family (ignores labels).
double SumByName(const std::vector<MetricSample>& samples,
                 std::string_view name) {
  double total = 0.0;
  for (const MetricSample& s : samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

// Windowed quantile over non-cumulative bucket deltas, mirroring
// Histogram::Quantile's PromQL interpolation.
double DeltaQuantile(const std::vector<double>& bounds,
                     const std::vector<uint64_t>& deltas, double q) {
  uint64_t total = 0;
  for (uint64_t d : deltas) total += d;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  double rank = q * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    uint64_t below = cum;
    cum += deltas[i];
    if (static_cast<double>(cum) >= rank) {
      if (i == 0 && bounds[0] <= 0) return bounds[0];
      double lower = i == 0 ? 0.0 : bounds[i - 1];
      if (deltas[i] == 0) return lower;
      double frac = (rank - static_cast<double>(below)) /
                    static_cast<double>(deltas[i]);
      return lower + (bounds[i] - lower) * frac;
    }
  }
  return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : bounds.back();
}

// Bucket deltas (clamped at zero per bucket, so a histogram reset
// reads as "no observations", never negative mass) between the first
// and last snapshot of one histogram series in a window. Also sums
// histogram family series across labels.
struct HistWindow {
  std::vector<double> bounds;
  std::vector<uint64_t> deltas;
  uint64_t count_delta = 0;
  bool any = false;
};

}  // namespace

TimeSeriesRing::TimeSeriesRing() : TimeSeriesRing(Options()) {}

TimeSeriesRing::TimeSeriesRing(Options options)
    : options_(options),
      registry_(options.registry ? options.registry
                                 : MetricsRegistry::Global()),
      anchor_(std::chrono::steady_clock::now()) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.interval_seconds <= 0) options_.interval_seconds = 1.0;
  ring_.resize(options_.capacity);
}

TimeSeriesRing::~TimeSeriesRing() { Stop(); }

void TimeSeriesRing::Start() {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (sampler_.joinable()) return;
  stop_ = false;
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void TimeSeriesRing::Stop() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void TimeSeriesRing::SamplerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sampler_mu_);
      sampler_cv_.wait_for(
          lock,
          std::chrono::duration<double>(options_.interval_seconds),
          [this] { return stop_; });
      if (stop_) return;
    }
    SampleOnce();
  }
}

void TimeSeriesRing::SampleOnce() {
  Snapshot snap;
  snap.samples = registry_->Collect();
  snap.wall_seconds = WallSecondsNow();
  snap.steady_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - anchor_)
          .count();
  std::function<void(const TimeSeriesRing&)> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_[total_ % options_.capacity] = std::move(snap);
    ++total_;
    cb = on_sample_;
  }
  if (cb) cb(*this);
}

void TimeSeriesRing::SetOnSample(
    std::function<void(const TimeSeriesRing&)> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  on_sample_ = std::move(cb);
}

size_t TimeSeriesRing::num_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::min(total_, options_.capacity);
}

std::vector<TimeSeriesRing::Snapshot> TimeSeriesRing::WindowLocked(
    double window_seconds) const {
  std::vector<Snapshot> out;
  const size_t n = std::min(total_, options_.capacity);
  if (n == 0) return out;
  const Snapshot& newest = ring_[(total_ - 1) % options_.capacity];
  const double cutoff = window_seconds > 0
                            ? newest.steady_seconds - window_seconds
                            : -1.0;
  // Oldest retained snapshot first.
  for (size_t i = total_ - n; i < total_; ++i) {
    const Snapshot& s = ring_[i % options_.capacity];
    if (s.steady_seconds >= cutoff) out.push_back(s);
  }
  return out;
}

std::vector<TimeSeriesRing::Snapshot> TimeSeriesRing::Window(
    double window_seconds) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowLocked(window_seconds);
}

std::vector<std::string> TimeSeriesRing::MetricKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  if (total_ == 0) return keys;
  const Snapshot& newest = ring_[(total_ - 1) % options_.capacity];
  keys.reserve(newest.samples.size());
  for (const MetricSample& s : newest.samples) keys.push_back(s.Key());
  return keys;
}

std::string TimeSeriesRing::RenderIndexJson() const {
  std::string out = "{\"interval_seconds\":";
  AppendJsonNumber(&out, options_.interval_seconds);
  out += ",\"capacity\":";
  AppendJsonNumber(&out, static_cast<double>(options_.capacity));
  out += ",\"samples\":";
  AppendJsonNumber(&out, static_cast<double>(num_samples()));
  out += ",\"metrics\":[";
  std::vector<std::string> keys = MetricKeys();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) out.push_back(',');
    out += '"' + JsonEscape(keys[i]) + '"';
  }
  out += "]}";
  return out;
}

std::string TimeSeriesRing::RenderJson(std::string_view metric,
                                       double window_seconds) const {
  if (metric.empty()) return RenderIndexJson();
  std::vector<Snapshot> window = Window(window_seconds);

  // Collect the per-snapshot view of this one series.
  struct Point {
    double wall = 0.0, steady = 0.0;
    const MetricSample* sample = nullptr;
  };
  std::vector<Point> points;
  for (const Snapshot& snap : window) {
    const MetricSample* s = FindSample(snap.samples, metric);
    if (s) points.push_back({snap.wall_seconds, snap.steady_seconds, s});
  }
  if (points.empty()) {
    std::string out = "{\"error\":\"unknown metric\",\"metric\":";
    out += '"' + JsonEscape(metric) + '"';
    out += ",\"metrics\":[";
    std::vector<std::string> keys = MetricKeys();
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i) out.push_back(',');
      out += '"' + JsonEscape(keys[i]) + '"';
    }
    out += "]}";
    return out;
  }

  const MetricKind kind = points.back().sample->kind;
  std::string out = "{\"metric\":";
  out += '"' + JsonEscape(metric) + '"';
  out += ",\"kind\":";
  out += kind == MetricKind::kCounter ? "\"counter\""
         : kind == MetricKind::kGauge ? "\"gauge\""
                                      : "\"histogram\"";
  out += ",\"window_seconds\":";
  AppendJsonNumber(&out, window_seconds);
  out += ",\"samples\":";
  AppendJsonNumber(&out, static_cast<double>(points.size()));

  const double span =
      points.size() > 1 ? points.back().steady - points.front().steady : 0.0;

  if (kind == MetricKind::kHistogram) {
    const MetricSample* first = points.front().sample;
    const MetricSample* last = points.back().sample;
    std::vector<uint64_t> deltas(last->buckets.size(), 0);
    uint64_t count_delta = 0;
    if (points.size() > 1 && first->buckets.size() == last->buckets.size()) {
      for (size_t i = 0; i < deltas.size(); ++i) {
        deltas[i] = last->buckets[i] >= first->buckets[i]
                        ? last->buckets[i] - first->buckets[i]
                        : 0;
      }
      count_delta = last->count >= first->count ? last->count - first->count : 0;
    } else {
      deltas = last->buckets;
      count_delta = last->count;
    }
    out += ",\"rate_per_sec\":";
    AppendJsonNumber(&out,
                     span > 0 ? static_cast<double>(count_delta) / span : 0.0);
    out += ",\"count\":";
    AppendJsonNumber(&out, static_cast<double>(count_delta));
    out += ",\"p50\":";
    AppendJsonNumber(&out, DeltaQuantile(last->bounds, deltas, 0.50));
    out += ",\"p90\":";
    AppendJsonNumber(&out, DeltaQuantile(last->bounds, deltas, 0.90));
    out += ",\"p99\":";
    AppendJsonNumber(&out, DeltaQuantile(last->bounds, deltas, 0.99));
    out += "}";
    return out;
  }

  if (kind == MetricKind::kCounter) {
    double increase = 0.0;
    for (size_t i = 1; i < points.size(); ++i) {
      double d = points[i].sample->value - points[i - 1].sample->value;
      if (d > 0) increase += d;  // A reset clamps to 0, never negative.
    }
    out += ",\"rate_per_sec\":";
    AppendJsonNumber(&out, span > 0 ? increase / span : 0.0);
    out += ",\"increase\":";
    AppendJsonNumber(&out, increase);
  } else {
    out += ",\"last\":";
    AppendJsonNumber(&out, points.back().sample->value);
  }
  out += ",\"points\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i) out.push_back(',');
    out += "{\"t\":";
    AppendJsonNumber(&out, points[i].wall);
    out += ",\"v\":";
    AppendJsonNumber(&out, points[i].sample->value);
    out += "}";
  }
  out += "]}";
  return out;
}

TimeSeriesRing::TopSummary TimeSeriesRing::Summarize(
    double window_seconds, double slow_threshold_millis) const {
  TopSummary top;
  top.window_seconds = window_seconds;
  std::vector<Snapshot> window = Window(window_seconds);
  top.samples = window.size();
  if (window.empty()) return top;
  const Snapshot& first = window.front();
  const Snapshot& last = window.back();
  const double span = last.steady_seconds - first.steady_seconds;

  auto counter_increase = [&](std::string_view name) {
    double prev = -1.0, increase = 0.0;
    for (const Snapshot& snap : window) {
      double v = SumByName(snap.samples, name);
      if (prev >= 0 && v > prev) increase += v - prev;
      prev = v;
    }
    return increase;
  };

  double requests = counter_increase("sama_server_requests_total");
  const char* latency_metric = "sama_server_request_millis";
  if (requests == 0.0) {
    // Not serving the binary protocol; fall back to the engine's view.
    requests = counter_increase("sama_queries_total");
    latency_metric = "sama_query_latency_millis";
  }
  const double shed = counter_increase("sama_server_shed_total");
  const double errors = counter_increase("sama_server_errors_total");
  top.requests_in_window = static_cast<uint64_t>(requests);
  top.qps = span > 0 ? requests / span : 0.0;
  top.shed_per_sec = span > 0 ? shed / span : 0.0;
  top.error_per_sec = span > 0 ? errors / span : 0.0;
  const double offered = requests + shed;
  top.shed_ratio = offered > 0 ? shed / offered : 0.0;
  top.error_ratio = requests > 0 ? errors / requests : 0.0;

  const double hits = counter_increase("sama_cache_hits_total");
  const double misses = counter_increase("sama_cache_misses_total");
  top.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;

  // Histogram window: sum bucket deltas across label sets.
  HistWindow hw;
  for (const MetricSample& s : last.samples) {
    if (s.name != latency_metric || s.kind != MetricKind::kHistogram) continue;
    const MetricSample* before = nullptr;
    for (const MetricSample& f : first.samples) {
      if (f.name == s.name && f.labels == s.labels &&
          f.buckets.size() == s.buckets.size()) {
        before = &f;
        break;
      }
    }
    if (!hw.any) {
      hw.bounds = s.bounds;
      hw.deltas.assign(s.buckets.size(), 0);
      hw.any = true;
    }
    if (hw.deltas.size() != s.buckets.size()) continue;
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      uint64_t prev = (before && window.size() > 1) ? before->buckets[i] : 0;
      hw.deltas[i] += s.buckets[i] >= prev ? s.buckets[i] - prev : 0;
    }
  }
  if (hw.any) {
    top.p50_millis = DeltaQuantile(hw.bounds, hw.deltas, 0.50);
    top.p99_millis = DeltaQuantile(hw.bounds, hw.deltas, 0.99);
    if (slow_threshold_millis > 0) {
      uint64_t total = 0, slow = 0;
      for (size_t i = 0; i < hw.deltas.size(); ++i) {
        total += hw.deltas[i];
        const bool above = i >= hw.bounds.size() ||
                           hw.bounds[i] > slow_threshold_millis;
        if (above) slow += hw.deltas[i];
      }
      top.slow_ratio =
          total > 0 ? static_cast<double>(slow) / static_cast<double>(total)
                    : 0.0;
    }
  } else {
    top.p50_millis = std::numeric_limits<double>::quiet_NaN();
    top.p99_millis = std::numeric_limits<double>::quiet_NaN();
  }

  top.epoch_pins = SumByName(last.samples, "sama_epoch_pins");
  const double appends = SumByName(last.samples, "sama_wal_appends_total");
  const double fsyncs = SumByName(last.samples, "sama_wal_fsyncs_total");
  top.wal_unsynced_appends = appends > fsyncs ? appends - fsyncs : 0.0;
  return top;
}

std::string TimeSeriesRing::RenderTopJson(double window_seconds) const {
  TopSummary top = Summarize(window_seconds);
  std::string out = "{\"window_seconds\":";
  AppendJsonNumber(&out, top.window_seconds);
  out += ",\"samples\":";
  AppendJsonNumber(&out, static_cast<double>(top.samples));
  out += ",\"qps\":";
  AppendJsonNumber(&out, top.qps);
  out += ",\"p50_ms\":";
  AppendJsonNumber(&out, top.p50_millis);
  out += ",\"p99_ms\":";
  AppendJsonNumber(&out, top.p99_millis);
  out += ",\"shed_per_sec\":";
  AppendJsonNumber(&out, top.shed_per_sec);
  out += ",\"error_per_sec\":";
  AppendJsonNumber(&out, top.error_per_sec);
  out += ",\"shed_ratio\":";
  AppendJsonNumber(&out, top.shed_ratio);
  out += ",\"error_ratio\":";
  AppendJsonNumber(&out, top.error_ratio);
  out += ",\"cache_hit_ratio\":";
  AppendJsonNumber(&out, top.cache_hit_ratio);
  out += ",\"epoch_pins\":";
  AppendJsonNumber(&out, top.epoch_pins);
  out += ",\"wal_unsynced_appends\":";
  AppendJsonNumber(&out, top.wal_unsynced_appends);
  out += "}";
  return out;
}

}  // namespace sama
