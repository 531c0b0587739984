#ifndef SAMA_OBS_DIAGNOSTICS_H_
#define SAMA_OBS_DIAGNOSTICS_H_

#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "obs/slow_query_log.h"
#include "obs/timeseries.h"
#include "obs/trace_context.h"

namespace sama {

// The diagnostics surface of a serving process (DESIGN.md §9): owns the
// 1 s telemetry ring and the SLO tracker it feeds, and serves them with
// the process's logs on a caller-owned ObsHttpServer:
//
//   GET /healthz          "ok", or 503 "degraded" while an SLO burns
//                         (?verbose=1: the SloTracker JSON); always
//                         "ok" with the SLO disabled
//   GET /metrics          Prometheus text exposition of the registry
//   GET /debug/queries    the slow-query ring, {"total","returned",
//                         "queries"}; ?limit=N keeps the newest N
//   GET /debug/profile    a retained profile as Chrome trace JSON
//                         (?id=N, default latest; 404 when unknown);
//                         ?format=text renders EXPLAIN ANALYZE
//   GET /debug/timeseries the ring's series listing, or one series with
//                         ?metric=NAME[&window=S]
//   GET /debug/top        the `sama_cli top` rollup (?window=S)
//   GET /debug/trace      retained trace ids; ?id=HEX (short ids are
//                         zero-extended) renders one as Chrome trace
//                         JSON, ?format=raw as its span list; 404 for
//                         an unknown id or without a trace store
//
// The windowed routes default to SloOptions::window_seconds. Null logs
// serve empty (queries) or 404 (profile, trace); a null registry means
// MetricsRegistry::Global(). Every handler reads snapshot-style APIs, so
// it is safe against queries in flight. The server must be stopped
// before this object is destroyed.
class Diagnostics {
 public:
  Diagnostics(const SlowQueryLog* slow, const ProfileLog* profiles,
              const TraceStore* traces, SloOptions slo,
              MetricsRegistry* registry = nullptr);
  ~Diagnostics();

  Diagnostics(const Diagnostics&) = delete;
  Diagnostics& operator=(const Diagnostics&) = delete;

  // Registers the seven routes above. Call before server->Start().
  void Register(ObsHttpServer* server);

  // Starts / stops the ring's sampler thread (the SLO tracker evaluates
  // after every sample). Stop is safe without Start.
  void Start() { ring_.Start(); }
  void Stop() { ring_.Stop(); }

  // The ring, so tests can drive it with SampleOnce instead of waiting
  // for the sampler.
  TimeSeriesRing& ring() { return ring_; }

 private:
  const SlowQueryLog* slow_;
  const ProfileLog* profiles_;
  const TraceStore* traces_;
  MetricsRegistry* registry_;
  TimeSeriesRing ring_;
  SloTracker slo_;
};

}  // namespace sama

#endif  // SAMA_OBS_DIAGNOSTICS_H_
