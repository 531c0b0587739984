// The diagnostics surface a serving process exposes: every route
// Diagnostics registers, served by a real ObsHttpServer on an
// ephemeral port over test-owned logs, trace store and registry, and
// fetched with HttpGet. The telemetry ring is driven with SampleOnce,
// so only the last test waits for the 1 s sampler (it runs the real
// thread for the sanitizer builds).
#include "obs/diagnostics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace sama {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class DiagnosticsTest : public ::testing::Test {
 protected:
  // Registers the routes on a fresh server. `traces` is the store the
  // binary server would own; null serves plain `serve`'s 404.
  void Serve(SloOptions slo = {}, const TraceStore* traces = nullptr) {
    diagnostics_ = std::make_unique<Diagnostics>(&slow_, &profiles_, traces,
                                                 slo, &registry_);
    server_ = std::make_unique<ObsHttpServer>(ObsHttpServer::Options{});
    diagnostics_->Register(server_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  HttpResponse Get(const std::string& target) {
    Result<HttpResponse> response =
        HttpGet(server_->host(), server_->port(), target);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : HttpResponse{0, "", ""};
  }

  // The server-shaped series the SLO tracker and /debug/top read.
  void ServeRequests(uint64_t requests, uint64_t errors) {
    registry_.GetCounter("sama_server_requests_total", "r", {{"type", "query"}})
        ->Increment(requests);
    registry_.GetCounter("sama_server_errors_total", "e")->Increment(errors);
    Histogram* latency =
        registry_.GetHistogram("sama_server_request_millis", "l",
                               Histogram::LatencyBucketsMillis());
    for (uint64_t i = 0; i < requests; ++i) latency->Observe(1.0);
  }

  MetricsRegistry registry_;
  SlowQueryLog slow_{SlowQueryLog::Options{}};
  ProfileLog profiles_{4};
  // Declared before the server, so the server stops before the
  // diagnostics its handlers read are destroyed.
  std::unique_ptr<Diagnostics> diagnostics_;
  std::unique_ptr<ObsHttpServer> server_;
};

TEST_F(DiagnosticsTest, QueriesKeepTheNewestUnderALimit) {
  for (const char* label : {"first", "second", "third"}) {
    SlowQueryRecord record;
    record.label = label;
    slow_.Record(record);
  }
  Serve();
  HttpResponse all = Get("/debug/queries");
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.content_type, "application/json");
  EXPECT_TRUE(Contains(all.body, "{\"total\":3,\"returned\":3,")) << all.body;
  EXPECT_TRUE(Contains(all.body, "\"label\":\"first\"")) << all.body;
  EXPECT_TRUE(Contains(all.body, "\"label\":\"third\"")) << all.body;

  HttpResponse limited = Get("/debug/queries?limit=2");
  EXPECT_TRUE(Contains(limited.body, "{\"total\":3,\"returned\":2,"))
      << limited.body;
  EXPECT_FALSE(Contains(limited.body, "\"label\":\"first\"")) << limited.body;
  EXPECT_TRUE(Contains(limited.body, "\"label\":\"second\"")) << limited.body;
  EXPECT_TRUE(Contains(limited.body, "\"label\":\"third\"")) << limited.body;

  EXPECT_TRUE(Contains(Get("/debug/queries?limit=99").body,
                       "{\"total\":3,\"returned\":3,"));
}

TEST_F(DiagnosticsTest, ProfileServesTraceJsonTextAnd404) {
  Serve();
  HttpResponse empty = Get("/debug/profile");
  EXPECT_EQ(empty.status, 404);
  EXPECT_EQ(empty.body, "no such profile\n");

  ProfileSummary summary;
  summary.label = "served";
  uint64_t id = profiles_.Add(std::make_shared<QueryProfile>(
      QueryProfile::Build({{1, 0, "query", 0.0, 2.0, 0, {}}}, summary, {})));

  HttpResponse latest = Get("/debug/profile");
  EXPECT_EQ(latest.status, 200);
  EXPECT_EQ(latest.content_type, "application/json");
  EXPECT_TRUE(Contains(latest.body, "\"traceEvents\"")) << latest.body;
  EXPECT_EQ(Get("/debug/profile?id=" + std::to_string(id)).body, latest.body);

  HttpResponse unknown = Get("/debug/profile?id=" + std::to_string(id + 1));
  EXPECT_EQ(unknown.status, 404);

  HttpResponse text = Get("/debug/profile?format=text");
  EXPECT_EQ(text.status, 200);
  EXPECT_EQ(text.content_type, "text/plain; charset=utf-8");
  EXPECT_EQ(text.body.rfind("EXPLAIN ANALYZE  served\n", 0), 0u) << text.body;
}

TEST_F(DiagnosticsTest, TimeseriesAndTopReadTheRing) {
  SloOptions slo;
  slo.window_seconds = 30;  // The windowed routes' default.
  Serve(slo);
  diagnostics_->Start();
  diagnostics_->ring().SampleOnce();
  ServeRequests(40, 0);
  diagnostics_->ring().SampleOnce();

  HttpResponse index = Get("/debug/timeseries");
  EXPECT_EQ(index.status, 200);
  EXPECT_EQ(index.content_type, "application/json");
  EXPECT_TRUE(Contains(index.body, "\"interval_seconds\":1")) << index.body;
  EXPECT_TRUE(
      Contains(index.body, "\"sama_server_requests_total{type=\\\"query\\\"}\""))
      << index.body;

  HttpResponse series = Get(
      "/debug/timeseries?metric=sama_server_request_millis&window=5");
  EXPECT_TRUE(Contains(series.body, "\"kind\":\"histogram\"")) << series.body;
  EXPECT_TRUE(Contains(series.body, "\"window_seconds\":5")) << series.body;

  HttpResponse top = Get("/debug/top");
  EXPECT_EQ(top.status, 200);
  EXPECT_TRUE(Contains(top.body, "{\"window_seconds\":30,")) << top.body;
  EXPECT_TRUE(Contains(top.body, "\"qps\":")) << top.body;
  EXPECT_TRUE(Contains(Get("/debug/top?window=7").body,
                       "{\"window_seconds\":7,"));
  diagnostics_->Stop();
}

TEST_F(DiagnosticsTest, TraceListsFindsShortIdsAnd404s) {
  TraceStore traces;
  TraceContext ctx;
  ASSERT_TRUE(TraceContext::ParseTraceId("beef", &ctx));
  std::shared_ptr<QueryTrace> trace = traces.GetOrCreate(ctx);
  uint64_t span = trace->BeginSpan("request", 0);
  trace->SetSpanAttr(span, "op", "query");
  trace->EndSpan(span);
  const std::string full = "0000000000000000000000000000beef";
  Serve({}, &traces);

  HttpResponse listing = Get("/debug/trace");
  EXPECT_EQ(listing.status, 200);
  EXPECT_EQ(listing.body, "{\"traces\":[\"" + full + "\"]}\n");

  HttpResponse found = Get("/debug/trace?id=beef");
  EXPECT_EQ(found.status, 200);
  EXPECT_EQ(found.content_type, "application/json");
  EXPECT_TRUE(Contains(found.body, "\"name\":\"sama trace " + full + "\""))
      << found.body;
  EXPECT_TRUE(Contains(found.body, "\"op\":\"query\"")) << found.body;
  EXPECT_EQ(Get("/debug/trace?id=" + full).body, found.body);
  EXPECT_EQ(Get("/debug/trace?id=beef&format=raw").body, trace->ToJson() + "\n");

  // %22 decodes to a quote, which the error body must escape.
  HttpResponse unknown = Get("/debug/trace?id=no%22such");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body,
            "{\"error\":\"no such trace\",\"id\":\"no\\\"such\"}\n");
  EXPECT_EQ(Get("/debug/trace?id=f00d").status, 404);
}

TEST_F(DiagnosticsTest, TraceIs404WithoutAStore) {
  Serve();
  HttpResponse r = Get("/debug/trace");
  EXPECT_EQ(r.status, 404);
  EXPECT_TRUE(Contains(r.body, "\"error\":")) << r.body;
  EXPECT_EQ(Get("/debug/trace?id=beef").status, 404);
}

TEST_F(DiagnosticsTest, HealthzTracksTheSlo) {
  SloOptions slo;
  slo.error_ratio = 0.01;
  Serve(slo);
  diagnostics_->ring().SampleOnce();
  ServeRequests(100, 0);
  diagnostics_->ring().SampleOnce();
  HttpResponse ok = Get("/healthz");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "ok\n");

  ServeRequests(100, 20);  // 10% of the window's requests errored.
  diagnostics_->ring().SampleOnce();
  HttpResponse degraded = Get("/healthz");
  EXPECT_EQ(degraded.status, 503);
  EXPECT_EQ(degraded.body, "degraded\n");

  HttpResponse verbose = Get("/healthz?verbose=1");
  EXPECT_EQ(verbose.status, 503);
  EXPECT_EQ(verbose.content_type, "application/json");
  EXPECT_TRUE(Contains(verbose.body, "\"status\":\"degraded\"")) << verbose.body;
  EXPECT_TRUE(Contains(verbose.body, "\"violations\":[\"errors\"]"))
      << verbose.body;
  EXPECT_EQ(Get("/healthz?verbose=0").body, "degraded\n");
}

TEST_F(DiagnosticsTest, HealthzIsOkWithTheSloDisabled) {
  SloOptions slo;
  slo.enabled = false;
  Serve(slo);
  diagnostics_->ring().SampleOnce();
  ServeRequests(100, 50);
  diagnostics_->ring().SampleOnce();
  HttpResponse r = Get("/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  EXPECT_EQ(Get("/healthz?verbose=1").body, "ok\n");
}

TEST_F(DiagnosticsTest, MetricsRendersTheRegistry) {
  registry_.GetCounter("sama_diagnostics_test_total", "t")->Increment(3);
  Serve();
  HttpResponse r = Get("/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_TRUE(Contains(r.body, "sama_diagnostics_test_total 3")) << r.body;
}

TEST_F(DiagnosticsTest, SamplerThreadFeedsTheRoutes) {
  Serve();
  diagnostics_->Start();
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (diagnostics_->ring().num_samples() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    ServeRequests(1, 0);
    EXPECT_EQ(Get("/healthz").status, 200);
    EXPECT_EQ(Get("/debug/top").status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(diagnostics_->ring().num_samples(), 1u);
  diagnostics_->Stop();
  diagnostics_->Stop();  // Idempotent.
}

}  // namespace
}  // namespace sama
