// Telemetry-history tier: the TimeSeriesRing sampler against a private
// registry — ring wraparound, counter-rate math including the
// reset-clamps-to-zero rule, histogram quantiles over windowed bucket
// deltas, the /debug/top rollup, and sampler-vs-mutator concurrency
// (CI runs this binary under TSan via SAMA_SANITIZE).
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"

namespace sama {
namespace {

TEST(TimeSeriesRingTest, SampleOnceCapturesRegistryInstruments) {
  MetricsRegistry registry;
  Counter* hits = registry.GetCounter("test_hits_total", "hits");
  registry.GetGauge("test_depth", "depth")->Set(3.5);
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  EXPECT_EQ(ring.num_samples(), 0u);
  hits->Increment(4);
  ring.SampleOnce();
  EXPECT_EQ(ring.num_samples(), 1u);
  std::vector<std::string> keys = ring.MetricKeys();
  ASSERT_EQ(keys.size(), 2u);  // Registry order: sorted by name.
  EXPECT_EQ(keys[0], "test_depth");
  EXPECT_EQ(keys[1], "test_hits_total");
}

TEST(TimeSeriesRingTest, RingWrapsAtCapacity) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test_total", "t");
  TimeSeriesRing::Options options;
  options.registry = &registry;
  options.capacity = 5;
  TimeSeriesRing ring(options);
  for (int i = 0; i < 17; ++i) {
    c->Increment();
    ring.SampleOnce();
    EXPECT_LE(ring.num_samples(), 5u);
  }
  EXPECT_EQ(ring.num_samples(), 5u);
  // The retained window still renders and sees only the newest
  // samples: the counter moved 4 times across the 5 retained
  // snapshots (17-Increment total, values 13..17).
  std::string json = ring.RenderJson("test_total", /*window_seconds=*/0);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"v\":17"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"v\":12"), std::string::npos) << json;
}

TEST(TimeSeriesRingTest, CounterResetClampsRateToZero) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test_total", "t");
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  c->Increment(100);
  ring.SampleOnce();
  registry.ResetValuesForTest();  // The "process restarted" shape.
  c->Increment(2);
  ring.SampleOnce();
  std::string json = ring.RenderJson("test_total", 0);
  // 2 < 100: the windowed increase must clamp to zero, never go
  // negative.
  EXPECT_NE(json.find("\"increase\":0,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rate_per_sec\":0,"), std::string::npos) << json;
}

TEST(TimeSeriesRingTest, HistogramQuantilesOverWindowDeltas) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test_latency_millis", "l",
                                       Histogram::LatencyBucketsMillis());
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  // Old mass the window math must subtract out.
  for (int i = 0; i < 50; ++i) h->Observe(4000.0);
  ring.SampleOnce();
  // New mass: all fast.
  for (int i = 0; i < 100; ++i) h->Observe(0.2);
  ring.SampleOnce();
  std::string json = ring.RenderJson("test_latency_millis", 0);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos) << json;
  // p99 over the delta must reflect only the fast observations — the
  // 4-second tail predates the window's first sample.
  size_t at = json.find("\"p99\":");
  ASSERT_NE(at, std::string::npos) << json;
  double p99 = std::strtod(json.c_str() + at + 6, nullptr);
  EXPECT_LE(p99, 1.0) << json;
}

TEST(TimeSeriesRingTest, UnknownMetricListsAlternatives) {
  MetricsRegistry registry;
  registry.GetCounter("test_total", "t");
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  ring.SampleOnce();
  std::string json = ring.RenderJson("nope", 0);
  EXPECT_NE(json.find("unknown metric"), std::string::npos);
  EXPECT_NE(json.find("test_total"), std::string::npos);
}

TEST(TimeSeriesRingTest, RenderedJsonEscapesEchoAndNullsNonFinite) {
  MetricsRegistry registry;
  registry.GetCounter("test_total", "t");
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  ring.SampleOnce();
  // The URL-decoded ?metric= parameter is echoed back: no raw control
  // byte may reach the JSON string.
  std::string unknown = ring.RenderJson(std::string("a\nb\x01"), 0);
  for (char c : unknown) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << unknown;
  }
  EXPECT_NE(unknown.find("\"metric\":\"a\\nb\\u0001\""), std::string::npos)
      << unknown;
  // ?window=inf parses to +infinity, which JSON cannot carry.
  std::string known = ring.RenderJson(
      "test_total", std::numeric_limits<double>::infinity());
  EXPECT_NE(known.find("\"window_seconds\":null"), std::string::npos)
      << known;
}

TEST(TimeSeriesRingTest, TopSummaryComputesServerRollup) {
  MetricsRegistry registry;
  Counter* requests =
      registry.GetCounter("sama_server_requests_total", "r",
                          {{"type", "query"}});
  Counter* shed = registry.GetCounter("sama_server_shed_total", "s");
  Counter* errors = registry.GetCounter("sama_server_errors_total", "e");
  Histogram* latency =
      registry.GetHistogram("sama_server_request_millis", "l",
                            Histogram::LatencyBucketsMillis());
  Counter* cache_hits = registry.GetCounter("sama_cache_hits_total", "h");
  Counter* cache_misses =
      registry.GetCounter("sama_cache_misses_total", "m");
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  ring.SampleOnce();
  requests->Increment(80);
  shed->Increment(10);
  errors->Increment(10);
  for (int i = 0; i < 80; ++i) latency->Observe(i < 72 ? 1.0 : 400.0);
  cache_hits->Increment(30);
  cache_misses->Increment(10);
  ring.SampleOnce();
  TimeSeriesRing::TopSummary top =
      ring.Summarize(/*window_seconds=*/0, /*slow_threshold_millis=*/250);
  EXPECT_EQ(top.requests_in_window, 80u);
  EXPECT_GT(top.qps, 0.0);
  EXPECT_NEAR(top.shed_ratio, 10.0 / 90.0, 1e-9);
  EXPECT_NEAR(top.error_ratio, 10.0 / 80.0, 1e-9);
  EXPECT_NEAR(top.cache_hit_ratio, 0.75, 1e-9);
  EXPECT_NEAR(top.slow_ratio, 0.1, 1e-9);  // 8 of 80 above 250ms.
  EXPECT_GT(top.p99_millis, 250.0);
  EXPECT_LT(top.p50_millis, 10.0);
}

TEST(TimeSeriesRingTest, OnSampleHookFiresPerSnapshot) {
  MetricsRegistry registry;
  TimeSeriesRing::Options options;
  options.registry = &registry;
  TimeSeriesRing ring(options);
  int fired = 0;
  ring.SetOnSample([&fired](const TimeSeriesRing& r) {
    ++fired;
    EXPECT_GE(r.num_samples(), 1u);
  });
  ring.SampleOnce();
  ring.SampleOnce();
  EXPECT_EQ(fired, 2);
}

TEST(TimeSeriesRingTest, SamplerThreadRacedAgainstMutators) {
  // A fast sampler raced against four instrument-mutating threads plus
  // a reader thread: no torn state, no crashes, and the ring keeps
  // accumulating. TSan validates the memory discipline.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("race_total", "r");
  Gauge* g = registry.GetGauge("race_gauge", "g");
  Histogram* h = registry.GetHistogram("race_millis", "h",
                                       Histogram::LatencyBucketsMillis());
  TimeSeriesRing::Options options;
  options.registry = &registry;
  options.interval_seconds = 0.001;
  options.capacity = 32;
  TimeSeriesRing ring(options);
  SloTracker slo(SloOptions{}, &ring, &registry);
  ring.SetOnSample([&slo](const TimeSeriesRing&) { slo.Evaluate(); });
  ring.Start();
  ring.Start();  // Idempotent.
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 4; ++t) {
    mutators.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c->Increment();
        g->Add(1.0);
        h->Observe(1.5);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)ring.RenderTopJson(1.0);
      (void)ring.RenderJson("race_total", 1.0);
      (void)slo.Snapshot();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : mutators) t.join();
  reader.join();
  ring.Stop();
  ring.Stop();  // Idempotent.
  EXPECT_GE(ring.num_samples(), 2u);
  EXPECT_LE(ring.num_samples(), 32u);
}

}  // namespace
}  // namespace sama
