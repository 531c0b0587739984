// Observability-overhead benchmark (DESIGN.md §15):
//
//   BM_QueryTracedCrossShard — the same LUBM workload runs through one
//     sharded engine twice per iteration, untraced (plain
//     ExecuteSparql) and traced (a QueryContext adopting a TraceStore
//     trace under a request span, the exact shape
//     `sama_cli serve --binary` produces for a propagated trace id).
//     Answers must be byte-identical between the two modes — tracing
//     is observation, never behaviour — and the headline number is
//     summary.traced_over_untraced, the total-time ratio, which must
//     stay within kMaxTraceOverhead. Span liveness is gated too: a
//     traced run that records no spans measured nothing.
//
//   BM_TimeSeriesSample — one TimeSeriesRing::SampleOnce over a
//     registry with a serving-sized instrument census, reported as
//     mean microseconds per snapshot. This is the always-on sampler's
//     steady-state cost (1 Hz in production), so it must stay in the
//     tens-of-microseconds range.
//
// The exit status is the gate: the run fails on any traced/untraced
// mismatch, on a traced run with no spans, and on a ratio outside
// (0, 1 + kMaxTraceOverhead]. --json=FILE writes the numbers as a JSON
// artifact.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "graph/data_graph.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "query/sparql.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

// Always-on tracing must stay nearly free: traced total time at most 5%
// over untraced. The ratio is taken on one machine in one run, so it
// holds on any hardware.
constexpr double kMaxTraceOverhead = 0.05;

struct Options {
  size_t universities = 2;
  size_t shards = 4;
  size_t k = 5;
  size_t iterations = 3;
  uint64_t max_expansions = 500000;
  size_t samples = 2000;
  std::string json_path;
};

// A lossless answer signature: any score or tie-break divergence
// between the traced and untraced runs changes the bytes.
std::string Signature(const std::vector<Answer>& answers) {
  std::string out;
  char buf[96];
  for (const Answer& a : answers) {
    std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|", a.score,
                  a.lambda_total, a.psi_total);
    out += buf;
    for (size_t i = 0; i < a.parts.size(); ++i) {
      out += std::to_string(a.query_path_index[i]);
      out += ':';
      out += std::to_string(a.parts[i].id);
      out += ',';
    }
    out += a.consistent ? ";ok\n" : ";inconsistent\n";
  }
  return out;
}

struct QueryRow {
  std::string name;
  double untraced_ms = 0;  // Mean over iterations.
  double traced_ms = 0;
  uint64_t spans = 0;  // Spans recorded per traced execution.
  bool match = true;
};

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

int Run(const Options& options) {
  LubmConfig config;
  config.universities = options.universities;
  std::fprintf(stderr, "generating LUBM (%zu universities)...\n",
               options.universities);
  DataGraph graph = DataGraph::FromTriples(GenerateLubm(config));
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();

  std::string dir = (std::filesystem::temp_directory_path() /
                     "sama_bench_obs_shards")
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedIndexOptions sopts;
  sopts.num_shards = options.shards;
  std::fprintf(stderr, "building %zu-shard index...\n", options.shards);
  Status built = BuildShardedIndex(graph, dir, sopts);
  if (!built.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  ShardedIndex index;
  Status opened = index.Open(&graph, dir, /*strict=*/true);
  if (!opened.ok()) {
    std::fprintf(stderr, "sharded open failed: %s\n",
                 opened.ToString().c_str());
    return 1;
  }
  EngineOptions engine_options;
  engine_options.search.max_expansions = options.max_expansions;
  ShardedEngine engine(&graph, &index, &thesaurus, engine_options);

  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  std::vector<QueryRow> rows(queries.size());
  TraceStore store(1024);
  uint64_t mismatches = 0;
  uint64_t total_spans = 0;
  double untraced_total_ms = 0, traced_total_ms = 0;

  for (size_t iter = 0; iter <= options.iterations; ++iter) {
    const bool warmup = iter == 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const BenchmarkQuery& q = queries[qi];
      auto parsed = ParseSparql(q.sparql);
      if (!parsed.ok()) {
        std::fprintf(stderr, "query %s does not parse: %s\n",
                     q.name.c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      rows[qi].name = q.name;

      Clock::time_point t0 = Clock::now();
      auto plain = engine.ExecuteSparql(*parsed, options.k, nullptr);
      double plain_ms = MillisSince(t0);
      if (!plain.ok()) {
        std::fprintf(stderr, "query %s failed: %s\n", q.name.c_str(),
                     plain.status().ToString().c_str());
        return 1;
      }

      // The serving shape: the query adopts the trace under a request
      // span, exactly what BinaryQueryServer does for a propagated id.
      QueryContext query_ctx;
      query_ctx.trace_context = TraceContext::Generate();
      std::shared_ptr<QueryTrace> trace =
          store.GetOrCreate(query_ctx.trace_context);
      t0 = Clock::now();
      query_ctx.trace = trace;
      query_ctx.parent_span = trace->BeginSpan("request", 0);
      auto traced =
          engine.ExecuteSparql(*parsed, options.k, nullptr, query_ctx);
      trace->EndSpan(query_ctx.parent_span);
      double traced_ms = MillisSince(t0);
      if (!traced.ok()) {
        std::fprintf(stderr, "traced query %s failed: %s\n",
                     q.name.c_str(),
                     traced.status().ToString().c_str());
        return 1;
      }

      if (warmup) continue;
      rows[qi].untraced_ms += plain_ms / options.iterations;
      rows[qi].traced_ms += traced_ms / options.iterations;
      rows[qi].spans = trace->size();
      total_spans += trace->size();
      untraced_total_ms += plain_ms;
      traced_total_ms += traced_ms;
      if (Signature(*plain) != Signature(*traced)) {
        if (rows[qi].match) {
          std::fprintf(stderr, "MISMATCH: %s diverges under tracing\n",
                       q.name.c_str());
        }
        rows[qi].match = false;
        ++mismatches;
      }
    }
  }
  const size_t executions = queries.size() * options.iterations;
  const double traced_over_untraced =
      untraced_total_ms > 0 ? traced_total_ms / untraced_total_ms : 0;
  const double spans_per_query =
      executions > 0 ? static_cast<double>(total_spans) / executions : 0;

  std::printf("obs bench: %zu queries x %zu iteration(s), %llu "
              "mismatch(es)\n",
              queries.size(), options.iterations,
              static_cast<unsigned long long>(mismatches));
  std::printf("  untraced total %.2f ms, traced total %.2f ms, "
              "ratio %.4f, %.1f spans/query\n",
              untraced_total_ms, traced_total_ms, traced_over_untraced,
              spans_per_query);

  // --- BM_TimeSeriesSample: the sampler's per-snapshot cost over a
  // serving-sized census (the binary server + engine + SLO tracker
  // register a few dozen instruments).
  MetricsRegistry registry;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> histograms;
  for (int i = 0; i < 24; ++i) {
    counters.push_back(registry.GetCounter(
        "bench_counter_" + std::to_string(i) + "_total", "bench"));
  }
  for (int i = 0; i < 8; ++i) {
    gauges.push_back(
        registry.GetGauge("bench_gauge_" + std::to_string(i), "bench"));
  }
  for (int i = 0; i < 8; ++i) {
    histograms.push_back(registry.GetHistogram(
        "bench_millis_" + std::to_string(i), "bench",
        Histogram::LatencyBucketsMillis()));
  }
  TimeSeriesRing::Options ring_options;
  ring_options.registry = &registry;
  TimeSeriesRing ring(ring_options);
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < options.samples; ++i) {
    // Keep the instruments moving so every snapshot copies live state.
    counters[i % counters.size()]->Increment();
    gauges[i % gauges.size()]->Set(static_cast<double>(i));
    histograms[i % histograms.size()]->Observe(1.5);
    ring.SampleOnce();
  }
  const double sample_mean_us =
      options.samples > 0
          ? MillisSince(t0) * 1000.0 / static_cast<double>(options.samples)
          : 0;
  std::printf("  timeseries: %zu snapshots over %zu instruments, "
              "%.2f us/sample\n",
              options.samples,
              counters.size() + gauges.size() + histograms.size(),
              sample_mean_us);

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"obs\",\n");
    std::fprintf(f, "  \"universities\": %zu,\n  \"shards\": %zu,\n",
                 options.universities, options.shards);
    std::fprintf(f, "  \"k\": %zu,\n  \"iterations\": %zu,\n", options.k,
                 options.iterations);
    std::fprintf(
        f,
        "  \"summary\": {\"mismatches\": %llu, "
        "\"untraced_total_ms\": %.4f, \"traced_total_ms\": %.4f, "
        "\"traced_over_untraced\": %.6f, \"spans_per_query\": %.2f, "
        "\"timeseries_samples\": %zu, \"timeseries_instruments\": %zu, "
        "\"sample_mean_us\": %.4f},\n",
        static_cast<unsigned long long>(mismatches),
        FiniteOr(untraced_total_ms), FiniteOr(traced_total_ms),
        FiniteOr(traced_over_untraced), FiniteOr(spans_per_query),
        options.samples,
        counters.size() + gauges.size() + histograms.size(),
        FiniteOr(sample_mean_us));
    std::fprintf(f, "  \"queries\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const QueryRow& row = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"untraced_ms\": %.4f, "
                   "\"traced_ms\": %.4f, \"spans\": %llu, "
                   "\"match\": %s}%s\n",
                   row.name.c_str(), FiniteOr(row.untraced_ms),
                   FiniteOr(row.traced_ms),
                   static_cast<unsigned long long>(row.spans),
                   row.match ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  const bool ratio_ok = traced_over_untraced > 0 &&
                        traced_over_untraced <= 1.0 + kMaxTraceOverhead;
  if (!ratio_ok) {
    std::fprintf(stderr,
                 "traced/untraced %.4f outside (0, %.2f]: tracing must "
                 "stay nearly free\n",
                 traced_over_untraced, 1.0 + kMaxTraceOverhead);
  }
  if (total_spans == 0) {
    std::fprintf(stderr, "the traced run recorded no spans\n");
  }
  return mismatches == 0 && total_spans > 0 && ratio_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace sama

int main(int argc, char** argv) {
  sama::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--universities=")) {
      options.universities = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--shards=")) {
      options.shards = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--k=")) {
      options.k = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--iterations=")) {
      options.iterations = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--max-expansions=")) {
      options.max_expansions = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--samples=")) {
      options.samples = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs [--universities=N] [--shards=N] "
                   "[--k=N] [--iterations=N] [--max-expansions=N] "
                   "[--samples=N] [--json=FILE]\n");
      return 2;
    }
  }
  return sama::bench::Run(options);
}
