// The two profile renderers are external contracts — humans read the
// EXPLAIN ANALYZE tree, Perfetto parses the Chrome trace JSON — so both
// are locked against golden files built from a fixed synthetic profile.
// On a mismatch the test prints the rendered text raw; only when the
// format changes deliberately does that text replace the golden file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace sama {
namespace {

// The fixed profile both goldens snapshot: the engine's canonical span
// shape (query → preprocess / clustering{2× score_chunk on 2 threads} /
// search) with hand-picked timings and counters that exercise every
// renderer branch — merged siblings, multi-thread nodes, cache + page +
// byte + io counters on clustering, expansions on search.
QueryProfile MakeGoldenProfile(bool truncated = false) {
  std::vector<TraceSpan> spans = {
      {1, 0, "query", 0.0, 10.0, 0, {}},
      {2, 1, "preprocess", 0.1, 1.0, 0, {}},
      {3, 1, "clustering", 1.2, 5.0, 0, {}},
      {4, 3, "score_chunk", 1.3, 2.0, 0, {}},
      {5, 3, "score_chunk", 1.4, 2.5, 1, {}},
      {6, 1, "search", 6.3, 3.5, 0, {}},
  };
  ProfileSummary summary;
  summary.label = "demo";
  summary.total_millis = 10.2;
  summary.num_query_paths = 3;
  summary.num_candidate_paths = 24;
  summary.num_answers = 10;
  summary.threads_used = 2;
  summary.search_expansions = 78;
  summary.search_truncated = truncated;

  std::vector<QueryProfile::PhaseCounters> phases(2);
  phases[0].phase = "clustering";
  phases[0].counters.cache_hits = 11;
  phases[0].counters.cache_misses = 50;
  phases[0].counters.pages_fetched = 12;
  phases[0].counters.pages_read = 2;
  phases[0].counters.pages_evicted = 1;
  phases[0].counters.bytes_read = 8192;
  phases[0].counters.io_retries = 1;
  phases[1].phase = "search";
  phases[1].counters.search_expansions = 78;

  return QueryProfile::Build(std::move(spans), std::move(summary), phases);
}

// Compares `rendered` with tests/data/`name`; on a mismatch prints the
// rendered text raw, ready to become the golden file.
void ExpectMatchesGolden(const std::string& rendered,
                         const std::string& name) {
  std::string path = std::string(SAMA_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str()) << "format drifted from " << path;
  if (rendered != golden.str()) {
    std::printf("rendered %s:\n%s", name.c_str(), rendered.c_str());
  }
}

TEST(ExporterTest, ExplainAnalyzeMatchesGolden) {
  ExpectMatchesGolden(RenderExplainAnalyze(MakeGoldenProfile()),
                      "obs_explain.golden");
}

TEST(ExporterTest, ChromeTraceMatchesGolden) {
  ExpectMatchesGolden(RenderChromeTrace(MakeGoldenProfile()),
                      "obs_profile_trace.golden");
}

TEST(ExporterTest, ExplainFlagsTruncatedSearch) {
  std::string out = RenderExplainAnalyze(MakeGoldenProfile(true));
  EXPECT_NE(out.find("[TRUNCATED by the anytime budget]"),
            std::string::npos)
      << out;
}

TEST(ExporterTest, ChromeTraceEscapesSpanNames) {
  std::vector<TraceSpan> spans = {
      {1, 0, "odd\"name\\here", 0.0, 1.0, 0, {}}};
  QueryProfile profile =
      QueryProfile::Build(std::move(spans), ProfileSummary{}, {});
  std::string out = RenderChromeTrace(profile);
  EXPECT_NE(out.find("odd\\\"name\\\\here"), std::string::npos) << out;
}

TEST(ExporterTest, SpansChromeTraceNamesTheTraceAndCarriesAttributes) {
  std::vector<TraceSpan> spans = {
      {1, 0, "request", 0.0, 2.0, 0, {{"op", "in\"sert\\"}}},
      {2, 1, "wal.append", 0.5, 1.0, 1, {{"lsn", "7"}}},
  };
  std::string out =
      RenderSpansChromeTrace(spans, "0000000000000000000000000000f00d");
  EXPECT_NE(out.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":0,\"args\":{\"name\":\"sama trace "
                     "0000000000000000000000000000f00d\"}}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"tid\":0,\"args\":{\"name\":\"request thread\"}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"tid\":1,\"args\":{\"name\":\"worker 1\"}"),
            std::string::npos)
      << out;
  // Attributes are escaped string args after the span's ids.
  EXPECT_NE(out.find("\"args\":{\"span_id\":1,\"op\":\"in\\\"sert\\\\\"}}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"args\":{\"span_id\":2,\"parent\":1,\"lsn\":\"7\"}}"),
            std::string::npos)
      << out;
}

TEST(ExporterTest, RefreshLatencyQuantilesPublishesSecondsGauges) {
  MetricsRegistry registry;
  auto bounds = Histogram::LatencyBucketsMillis();
  Histogram* lat = registry.GetHistogram("sama_query_latency_millis",
                                         "End-to-end query latency.",
                                         bounds);
  ASSERT_NE(lat, nullptr);
  for (int i = 0; i < 100; ++i) lat->Observe(3.0);
  Histogram* phase = registry.GetHistogram("sama_query_phase_millis",
                                           "Per-phase query latency.",
                                           bounds, {{"phase", "search"}});
  ASSERT_NE(phase, nullptr);
  phase->Observe(1.0);

  RefreshLatencyQuantiles(&registry);

  std::string text = registry.RenderText();
  EXPECT_NE(text.find("sama_query_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sama_query_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sama_query_phase_seconds{phase=\"search\","
                      "quantile=\"0.95\"}"),
            std::string::npos)
      << text;
  // Unobserved phases publish nothing.
  EXPECT_EQ(text.find("phase=\"clustering\",quantile"), std::string::npos);

  // The gauge holds the histogram's interpolated quantile in seconds.
  Gauge* p50 = registry.GetGauge(
      "sama_query_latency_seconds", "", {{"quantile", "0.5"}});
  ASSERT_NE(p50, nullptr);
  EXPECT_DOUBLE_EQ(p50->Value(), lat->Quantile(0.5) / 1000.0);
}

TEST(ExporterTest, RefreshLatencyQuantilesSkipsEmptyHistograms) {
  MetricsRegistry registry;
  RefreshLatencyQuantiles(&registry);
  RefreshLatencyQuantiles(nullptr);  // Null registry is a no-op.
  EXPECT_EQ(registry.RenderText().find("quantile"), std::string::npos);
}

TEST(ExporterTest, QuantileBoundaryRanksMatchPromql) {
  MetricsRegistry registry;
  // Empty leading bucket with a boundary-exact rank (q=0 → rank 0):
  // PromQL selects the FIRST bucket whose cumulative count reaches the
  // rank — the empty (0,1] — and with nothing to interpolate over its
  // lower edge is the answer. The old scan skipped empty buckets and
  // misreported this as the empty bucket's UPPER bound.
  Histogram* lead = registry.GetHistogram("q_lead", "h", {1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) lead->Observe(1.5);  // All mass in (1,2].
  EXPECT_DOUBLE_EQ(lead->Quantile(0.0), 0.0);
  // Interior ranks still interpolate inside the occupied bucket.
  EXPECT_DOUBLE_EQ(lead->Quantile(0.5), 1.5);

  // An empty bucket BETWEEN occupied ones: the boundary-exact rank
  // (q=0.5 → rank 4 = bucket 0's cumulative count) resolves at the top
  // of bucket 0; past the boundary the rank skips the empty (1,2] and
  // interpolates in (2,4].
  Histogram* mid = registry.GetHistogram("q_mid", "h", {1.0, 2.0, 4.0});
  for (int i = 0; i < 4; ++i) mid->Observe(0.5);
  for (int i = 0; i < 4; ++i) mid->Observe(3.0);
  EXPECT_DOUBLE_EQ(mid->Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(mid->Quantile(0.75), 3.0);  // rank 6 → 2 + 2·(2/4).

  // A first bound <= 0 short-circuits to that bound (PromQL rule).
  Histogram* neg = registry.GetHistogram("q_neg", "h", {0.0, 1.0});
  neg->Observe(0.5);
  EXPECT_DOUBLE_EQ(neg->Quantile(0.0), 0.0);

  // A rank in the +Inf bucket clamps to the largest finite bound.
  Histogram* inf = registry.GetHistogram("q_inf", "h", {1.0});
  inf->Observe(50.0);
  EXPECT_DOUBLE_EQ(inf->Quantile(0.99), 1.0);
}

}  // namespace
}  // namespace sama
