#ifndef SAMA_OBS_EXPORTER_H_
#define SAMA_OBS_EXPORTER_H_

#include <string>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace sama {

// Renders a QueryProfile as a postgres-style EXPLAIN ANALYZE text
// tree: one line per aggregated phase node with wall/self time, span
// and thread counts, plus indented resource lines (cache hit/miss,
// pages fetched/read/evicted, bytes read, retries) for nodes that
// carry counters. Deterministic for a fixed profile — the golden test
// in tests/obs/exporter_test.cc locks the format, which sama_cli
// --explain and the /debug/profile?format=text endpoint both emit.
std::string RenderExplainAnalyze(const QueryProfile& profile);

// Renders the profile's raw spans as Chrome trace-event JSON (the
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// format), loadable in Perfetto or chrome://tracing: one complete
// ("ph":"X") event per span with microsecond timestamps, thread_name
// metadata events for every per-trace thread ordinal, and the phase
// resource counters attached as args on the first span of each phase.
// Written by sama_cli --profile-out and served by /debug/profile.
std::string RenderChromeTrace(const QueryProfile& profile);

// Same trace-event JSON for a raw span list — the shape /debug/trace
// serves for propagated traces (DESIGN.md §15), which have no
// QueryProfile (a trace can span several requests, so the single-query
// profile aggregation does not apply). Span attributes become string
// args; `trace_id` labels the Perfetto process row.
std::string RenderSpansChromeTrace(const std::vector<TraceSpan>& spans,
                                   const std::string& trace_id);

// Recomputes the P50/P95/P99 latency quantiles from the engine's
// latency histograms (sama_query_latency_millis and the per-phase
// sama_query_phase_millis series) and publishes them as
// sama_query_latency_seconds{quantile="..."} /
// sama_query_phase_seconds{phase="...",quantile="..."} gauges in
// `registry`. Quantiles are linearly interpolated inside the bucket
// (Histogram::Quantile); histograms with no observations publish
// nothing. Call before rendering /metrics — scrape-time computation
// keeps the query hot path free of quantile math.
void RefreshLatencyQuantiles(MetricsRegistry* registry);

// Publishes the global epoch manager's reclamation state as gauges in
// `registry`: sama_epoch_current (the epoch number), sama_epoch_pins
// (lifetime pin operations), and sama_epoch_pending_reclaims (retired
// objects whose grace period has not yet passed — a stuck reader shows
// up as this value growing without bound). Call before rendering
// /metrics, like RefreshLatencyQuantiles: scrape-time publication
// keeps the lock-free read paths free of metrics traffic.
void RefreshEpochMetrics(MetricsRegistry* registry);

// What a /metrics scrape serves: refreshes the latency quantiles and
// the epoch gauges above, then renders `registry` (non-null) in
// Prometheus text format. sama_cli's /metrics handler and its
// --metrics dump both print this.
std::string RenderMetricsScrape(MetricsRegistry* registry);

}  // namespace sama

#endif  // SAMA_OBS_EXPORTER_H_
