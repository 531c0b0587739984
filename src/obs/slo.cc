#include "obs/slo.h"

#include <cmath>

#include "common/string_util.h"

namespace sama {

SloTracker::SloTracker(SloOptions options, const TimeSeriesRing* ring,
                       MetricsRegistry* registry)
    : options_(options), ring_(ring) {
  MetricsRegistry* reg = registry ? registry : MetricsRegistry::Global();
  degraded_gauge_ = reg->GetGauge(
      "sama_slo_degraded",
      "1 when any SLO burn rate is at or above its threshold");
  latency_p99_gauge_ = reg->GetGauge(
      "sama_slo_latency_p99_millis",
      "Windowed p99 request latency the SLO tracker evaluated");
  latency_burn_gauge_ = reg->GetGauge(
      "sama_slo_latency_burn_rate",
      "Slow-request ratio over the allowed ratio (1.0 = at budget)");
  error_burn_gauge_ = reg->GetGauge(
      "sama_slo_error_burn_rate",
      "Error ratio over the allowed ratio (1.0 = at budget)");
  shed_burn_gauge_ = reg->GetGauge(
      "sama_slo_shed_burn_rate",
      "Shed ratio over the allowed ratio (1.0 = at budget)");
}

void SloTracker::Evaluate() {
  if (!options_.enabled || !ring_) return;
  TimeSeriesRing::TopSummary top =
      ring_->Summarize(options_.window_seconds, options_.latency_millis);

  Health h;
  h.evaluated = true;
  h.window_seconds = options_.window_seconds;
  h.latency_p99_millis = std::isnan(top.p99_millis) ? 0.0 : top.p99_millis;
  h.latency_burn = options_.latency_bad_ratio > 0
                       ? top.slow_ratio / options_.latency_bad_ratio
                       : 0.0;
  h.error_burn =
      options_.error_ratio > 0 ? top.error_ratio / options_.error_ratio : 0.0;
  h.shed_burn =
      options_.shed_ratio > 0 ? top.shed_ratio / options_.shed_ratio : 0.0;
  if (h.latency_burn >= options_.burn_threshold) {
    h.violations.push_back("latency");
  }
  if (h.error_burn >= options_.burn_threshold) h.violations.push_back("errors");
  if (h.shed_burn >= options_.burn_threshold) h.violations.push_back("shed");
  h.degraded = !h.violations.empty();

  degraded_gauge_->Set(h.degraded ? 1.0 : 0.0);
  latency_p99_gauge_->Set(h.latency_p99_millis);
  latency_burn_gauge_->Set(h.latency_burn);
  error_burn_gauge_->Set(h.error_burn);
  shed_burn_gauge_->Set(h.shed_burn);

  std::lock_guard<std::mutex> lock(mu_);
  health_ = std::move(h);
}

SloTracker::Health SloTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

std::string SloTracker::RenderJson() const {
  Health h = Snapshot();
  std::string out = "{\"status\":\"";
  out += h.degraded ? "degraded" : "ok";
  out += "\",\"evaluated\":";
  out += h.evaluated ? "true" : "false";
  out += ",\"window_seconds\":";
  AppendJsonNumber(&out, h.window_seconds);
  out += ",\"burn_threshold\":";
  AppendJsonNumber(&out, options_.burn_threshold);
  out += ",\"objectives\":{\"latency\":{\"threshold_ms\":";
  AppendJsonNumber(&out, options_.latency_millis);
  out += ",\"allowed_bad_ratio\":";
  AppendJsonNumber(&out, options_.latency_bad_ratio);
  out += ",\"p99_ms\":";
  AppendJsonNumber(&out, h.latency_p99_millis);
  out += ",\"burn_rate\":";
  AppendJsonNumber(&out, h.latency_burn);
  out += "},\"errors\":{\"allowed_bad_ratio\":";
  AppendJsonNumber(&out, options_.error_ratio);
  out += ",\"burn_rate\":";
  AppendJsonNumber(&out, h.error_burn);
  out += "},\"shed\":{\"allowed_bad_ratio\":";
  AppendJsonNumber(&out, options_.shed_ratio);
  out += ",\"burn_rate\":";
  AppendJsonNumber(&out, h.shed_burn);
  out += "}},\"violations\":[";
  for (size_t i = 0; i < h.violations.size(); ++i) {
    if (i) out.push_back(',');
    out += "\"" + h.violations[i] + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace sama
