// Engine-level observability: per-query cache attribution under
// concurrency (the PR-4 stats bugfix), trace attachment, the
// slow-query log fed by real queries through the Env seam, registry
// instruments, and ForestSearchStats::truncated propagation on the
// single-thread and degraded paths.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "datasets/govtrack.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

// A self-contained GovTrack Figure-1 environment. Each test gets its
// own index because engine construction configures the index-side
// caches.
struct ObsEnv {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus;
  std::unique_ptr<SamaEngine> engine;

  explicit ObsEnv(EngineOptions options = {}) {
    graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(GovTrackFigure1Triples()));
    index = std::make_unique<PathIndex>();
    Status s = index->Build(*graph, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
    thesaurus = Thesaurus::BuiltinEnglish();
    engine = std::make_unique<SamaEngine>(graph.get(), index.get(),
                                          &thesaurus, options);
  }

  QueryGraph Query1() const {
    return engine->BuildQueryGraph(GovTrackQuery1Patterns());
  }
};

uint64_t TotalMisses(const QueryStats& s) {
  return s.posting_cache.misses + s.path_lookup_cache.misses +
         s.path_record_cache.misses + s.label_match_cache.misses +
         s.alignment_memo.misses + s.thesaurus_cache.misses;
}

uint64_t TotalInsertions(const QueryStats& s) {
  return s.posting_cache.insertions + s.path_lookup_cache.insertions +
         s.path_record_cache.insertions + s.label_match_cache.insertions +
         s.alignment_memo.insertions + s.thesaurus_cache.insertions;
}

uint64_t TotalLookups(const QueryStats& s) {
  return s.posting_cache.lookups() + s.path_lookup_cache.lookups() +
         s.path_record_cache.lookups() + s.label_match_cache.lookups() +
         s.alignment_memo.lookups() + s.thesaurus_cache.lookups();
}

// THE attribution regression test. Two queries run concurrently on one
// engine: thread 1 re-runs a fully warmed query A (its own traffic is
// all hits — zero misses, zero insertions), thread 2 hammers
// never-seen-before queries that miss every index cache on every
// iteration. A's per-query stats must show exactly A's traffic.
//
// Before the scoped-sink fix the engine diffed the SHARED lifetime
// counters around each query, so thread 2's misses/insertions landing
// inside thread 1's window were attributed to A — this test fails on
// that implementation (A reports nonzero misses) and passes on the
// per-query sinks.
TEST(EngineObsTest, ConcurrentQueriesAttributeCacheTrafficDisjointly) {
  ObsEnv env;
  QueryGraph warm_query = env.Query1();

  // Warm every layer, then verify the warm premise sequentially: a
  // re-run of A is all hits.
  ASSERT_TRUE(env.engine->Execute(warm_query, 10).ok());
  QueryStats warm_stats;
  ASSERT_TRUE(env.engine->Execute(warm_query, 10, &warm_stats).ok());
  ASSERT_EQ(TotalMisses(warm_stats), 0u)
      << "warm re-run premise broken; the concurrent assertion below "
         "would be vacuous";
  ASSERT_GT(TotalLookups(warm_stats), 0u);

  // Thread 2's queries: a fresh, never-indexed sink literal each
  // iteration, so every iteration misses (and inserts into) the index
  // caches no matter how long the threads run. Built upfront so the
  // shared dictionary is not mutated concurrently.
  constexpr int kIterations = 40;
  std::vector<QueryGraph> fresh_queries;
  fresh_queries.reserve(kIterations);
  for (int i = 0; i < kIterations; ++i) {
    auto parsed = ParseSparql(
        "PREFIX gov: <http://gov.example.org/>\n"
        "SELECT ?x WHERE { ?x gov:subject \"never_indexed_" +
        std::to_string(i) + "\" }");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    fresh_queries.push_back(
        parsed->ToQueryGraph(env.graph->shared_dict()));
  }

  std::atomic<bool> start{false};
  std::atomic<uint64_t> contaminating_misses{0};
  uint64_t leaked_misses = 0, leaked_insertions = 0;

  std::thread warm_thread([&] {
    while (!start.load()) {
    }
    for (int i = 0; i < kIterations; ++i) {
      QueryStats stats;
      auto answers = env.engine->Execute(warm_query, 10, &stats);
      ASSERT_TRUE(answers.ok());
      leaked_misses += TotalMisses(stats);
      leaked_insertions += TotalInsertions(stats);
    }
  });
  std::thread fresh_thread([&] {
    while (!start.load()) {
    }
    for (int i = 0; i < kIterations; ++i) {
      QueryStats stats;
      auto answers = env.engine->Execute(fresh_queries[i], 10, &stats);
      ASSERT_TRUE(answers.ok());
      contaminating_misses += TotalMisses(stats);
    }
  });
  start.store(true);
  warm_thread.join();
  fresh_thread.join();

  // The other thread really was missing caches the whole time...
  EXPECT_GE(contaminating_misses.load(),
            static_cast<uint64_t>(kIterations));
  // ...and none of that traffic leaked into the warm query's stats.
  EXPECT_EQ(leaked_misses, 0u);
  EXPECT_EQ(leaked_insertions, 0u);
}

TEST(EngineObsTest, TraceAttachedToStatsWhenEnabled) {
  EngineOptions options;
  options.obs.trace = true;
  ObsEnv env(options);
  QueryStats stats;
  auto answers = env.engine->Execute(env.Query1(), 10, &stats);
  ASSERT_TRUE(answers.ok());
  ASSERT_NE(stats.trace, nullptr);

  uint64_t query_id = 0;
  bool saw_preprocess = false, saw_clustering = false, saw_search = false;
  uint64_t clustering_id = 0;
  for (const TraceSpan& s : stats.trace->Snapshot()) {
    EXPECT_GE(s.duration_millis, 0.0) << s.name << " left open";
    if (s.name == "query") {
      query_id = s.id;
      EXPECT_EQ(s.parent, 0u);
    }
    if (s.name == "clustering") clustering_id = s.id;
  }
  ASSERT_NE(query_id, 0u);
  ASSERT_NE(clustering_id, 0u);
  for (const TraceSpan& s : stats.trace->Snapshot()) {
    if (s.name == "preprocess" || s.name == "clustering" ||
        s.name == "search") {
      EXPECT_EQ(s.parent, query_id) << s.name;
      saw_preprocess |= s.name == "preprocess";
      saw_clustering |= s.name == "clustering";
      saw_search |= s.name == "search";
    }
    if (s.name == "score_chunk") {
      EXPECT_EQ(s.parent, clustering_id);
    }
  }
  EXPECT_TRUE(saw_preprocess && saw_clustering && saw_search);

  // The search splits into its table lookup-or-build and its waves, in
  // that order; a repeat of the query reuses the memoized tables.
  auto search_children = [](const QueryTrace& trace) {
    std::vector<TraceSpan> spans = trace.Snapshot();
    uint64_t search_id = 0;
    for (const TraceSpan& s : spans) {
      if (s.name == "search") search_id = s.id;
    }
    std::vector<TraceSpan> children;
    for (const TraceSpan& s : spans) {
      if (search_id != 0 && s.parent == search_id) children.push_back(s);
    }
    return children;
  };
  auto attr = [](const TraceSpan& span, const std::string& name) {
    for (const auto& [key, value] : span.attrs) {
      if (key == name) return value;
    }
    return std::string("(none)");
  };
  auto reused = [&](const TraceSpan& span) { return attr(span, "reused"); };
  std::vector<TraceSpan> cold = search_children(*stats.trace);
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_EQ(cold[0].name, "search.tables");
  EXPECT_EQ(cold[1].name, "search.waves");
  EXPECT_LE(cold[0].start_millis, cold[1].start_millis);
  EXPECT_EQ(reused(cold[0]), "false");
  // The waves carry the prefix-slot counters QueryStats reports.
  EXPECT_EQ(attr(cold[1], "intersections"),
            std::to_string(stats.search_intersections));
  EXPECT_EQ(attr(cold[1], "intersections_reused"),
            std::to_string(stats.search_intersections_reused));

  QueryStats again;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &again).ok());
  ASSERT_NE(again.trace, nullptr);
  std::vector<TraceSpan> warm = search_children(*again.trace);
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_EQ(warm[0].name, "search.tables");
  EXPECT_EQ(reused(warm[0]), "true");
  EXPECT_EQ(warm[1].name, "search.waves");
}

TEST(EngineObsTest, NoTraceByDefaultAndAnswersIdentical) {
  ObsEnv plain;
  EngineOptions traced_options;
  traced_options.obs.trace = true;
  ObsEnv traced(traced_options);

  QueryStats plain_stats, traced_stats;
  auto a = plain.engine->Execute(plain.Query1(), 10, &plain_stats);
  auto b = traced.engine->Execute(traced.Query1(), 10, &traced_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(plain_stats.trace, nullptr);
  ASSERT_NE(traced_stats.trace, nullptr);

  // Tracing never alters answers (the determinism contract).
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score);
  }
}

TEST(EngineObsTest, SlowQueryLogRecordsThroughEngine) {
  EngineOptions options;
  options.obs.slow_query_millis = 1e-6;  // Record everything.
  ObsEnv env(options);
  ASSERT_NE(env.engine->slow_query_log(), nullptr);

  QueryStats stats;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &stats).ok());
  const SlowQueryLog* log = env.engine->slow_query_log();
  EXPECT_EQ(log->total_recorded(), 1u);
  auto records = log->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].total_millis, stats.total_millis);
  EXPECT_EQ(records[0].num_answers, stats.num_answers);
  EXPECT_EQ(records[0].threads, 1);
}

TEST(EngineObsTest, SlowQueryLogDisabledByDefault) {
  ObsEnv env;
  EXPECT_EQ(env.engine->slow_query_log(), nullptr);
}

TEST(EngineObsTest, SlowQuerySinkFailureNeverFailsTheQuery) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "sama_engine_obs_sink.jsonl")
                         .string();
  std::remove(path.c_str());
  FaultyEnv faulty(Env::Default());
  FaultSpec spec;
  spec.fail_after = 0;  // Every sink append fails.
  faulty.Arm(IoOp::kWrite, spec);

  EngineOptions options;
  options.obs.slow_query_millis = 1e-6;
  options.obs.slow_query_path = path;
  options.obs.env = &faulty;
  ObsEnv env(options);

  auto answers = env.engine->Execute(env.Query1(), 10);
  ASSERT_TRUE(answers.ok()) << "a broken sink must not fail queries";
  EXPECT_FALSE(answers->empty());
  const SlowQueryLog* log = env.engine->slow_query_log();
  EXPECT_EQ(log->sink_failures(), 1u);
  EXPECT_EQ(log->Snapshot().size(), 1u);  // Ring still recorded.
  std::remove(path.c_str());
}

TEST(EngineObsTest, RegistryInstrumentsFedByQueries) {
  MetricsRegistry registry;
  EngineOptions options;
  options.obs.registry = &registry;
  ObsEnv env(options);

  QueryStats stats;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &stats).ok());

  Counter* queries = registry.GetCounter("sama_queries_total", "");
  Counter* answers = registry.GetCounter("sama_query_answers_total", "");
  Histogram* latency = registry.GetHistogram(
      "sama_query_latency_millis", "", Histogram::LatencyBucketsMillis());
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->Value(), 1u);
  EXPECT_EQ(answers->Value(), stats.num_answers);
  EXPECT_EQ(latency->Count(), 1u);

  Counter* record_misses = registry.GetCounter(
      "sama_cache_misses_total", "", {{"cache", "path_records"}});
  EXPECT_EQ(record_misses->Value(), stats.path_record_cache.misses);

  // A second query keeps accumulating.
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10).ok());
  EXPECT_EQ(queries->Value(), 2u);
  EXPECT_EQ(latency->Count(), 2u);
}

TEST(EngineObsTest, MetricsOffStillFillsQueryStats) {
  EngineOptions options;
  options.obs.metrics = false;
  ObsEnv env(options);
  QueryStats stats;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &stats).ok());
  // The per-query attribution is unconditional — QueryStats correctness
  // does not depend on the metrics switch.
  EXPECT_GT(TotalLookups(stats), 0u);
  EXPECT_GT(stats.num_answers, 0u);
}

// Satellite 5: a starved anytime budget must surface truncated == true
// through QueryStats on the sequential path and on the degraded
// (strict_io == false) path, and the flag must agree across thread
// counts (the determinism contract covers stats too).
TEST(EngineObsTest, TruncatedPropagatesAtSingleThread) {
  EngineOptions options;
  options.num_threads = 1;
  options.clustering.strict_io = false;  // The degraded read policy.
  options.search.max_expansions = 1;
  ObsEnv env(options);
  QueryStats stats;
  auto answers = env.engine->Execute(env.Query1(), 10, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(stats.search_truncated)
      << "a 1-expansion budget cannot complete Query 1";

  // Sanity: with the default budget the same query completes.
  ObsEnv roomy;
  QueryStats roomy_stats;
  ASSERT_TRUE(roomy.engine->Execute(roomy.Query1(), 10, &roomy_stats).ok());
  EXPECT_FALSE(roomy_stats.search_truncated);
}

TEST(EngineObsTest, TruncatedAgreesAcrossThreadCounts) {
  QueryStats serial_stats, parallel_stats;
  {
    EngineOptions options;
    options.num_threads = 1;
    options.search.max_expansions = 1;
    ObsEnv env(options);
    ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &serial_stats).ok());
  }
  {
    EngineOptions options;
    options.num_threads = 4;
    options.search.max_expansions = 1;
    ObsEnv env(options);
    ASSERT_TRUE(
        env.engine->Execute(env.Query1(), 10, &parallel_stats).ok());
  }
  EXPECT_EQ(serial_stats.search_truncated, parallel_stats.search_truncated);
  EXPECT_TRUE(serial_stats.search_truncated);
}

TEST(EngineObsTest, SpeedupsAreFiniteOnTrivialQueries) {
  ObsEnv env;
  QueryGraph query = env.Query1();
  for (int i = 0; i < 3; ++i) {
    QueryStats stats;
    ASSERT_TRUE(env.engine->Execute(query, 10, &stats).ok());
    double cs = stats.ClusteringSpeedup();
    double ss = stats.SearchSpeedup();
    EXPECT_TRUE(std::isfinite(cs)) << cs;
    EXPECT_TRUE(std::isfinite(ss)) << ss;
    EXPECT_GE(cs, 0.0);
    EXPECT_LE(cs, static_cast<double>(stats.threads_used));
    EXPECT_LE(ss, static_cast<double>(stats.threads_used));
  }
  // The clamp itself, on the pathological inputs that used to leak
  // inf/nan into --stats output and bench JSON.
  EXPECT_DOUBLE_EQ(QueryStats::PhaseSpeedup(1.0, 0.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(QueryStats::PhaseSpeedup(0.0, 0.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(QueryStats::PhaseSpeedup(1.0, 1e-300, 4), 1.0);
  EXPECT_DOUBLE_EQ(QueryStats::PhaseSpeedup(1e300, 1.0, 4), 4.0);
  EXPECT_DOUBLE_EQ(
      QueryStats::PhaseSpeedup(std::nan(""), 1.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(QueryStats::PhaseSpeedup(2.0, 1.0, 4), 2.0);
}

// --- Query profiler (obs.profile) -----------------------------------

const ProfileNode* FindProfileNode(const QueryProfile& profile,
                                   const std::string& name) {
  for (const ProfileNode& node : profile.nodes()) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

TEST(EngineObsTest, ProfileAttachedWithPhaseTreeAndCounters) {
  EngineOptions options;
  options.obs.profile = true;
  ObsEnv env(options);
  QueryStats stats;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &stats).ok());
  ASSERT_NE(stats.profile, nullptr);
  // Profile-only mode: spans live inside the profile, not on stats.
  EXPECT_EQ(stats.trace, nullptr);

  const QueryProfile& profile = *stats.profile;
  ASSERT_EQ(profile.roots().size(), 1u);
  EXPECT_EQ(profile.nodes()[profile.roots()[0]].name, "query");
  for (const char* phase : {"preprocess", "clustering", "search"}) {
    EXPECT_NE(FindProfileNode(profile, phase), nullptr) << phase;
  }

  // Summary mirrors the query's stats.
  EXPECT_EQ(profile.summary().num_answers, stats.num_answers);
  EXPECT_EQ(profile.summary().num_query_paths, stats.num_query_paths);
  EXPECT_DOUBLE_EQ(profile.summary().total_millis, stats.total_millis);
  EXPECT_EQ(profile.summary().search_truncated, stats.search_truncated);

  // A cold query misses the index caches during clustering, and search
  // expansions land on the search node.
  const ProfileNode* clustering = FindProfileNode(profile, "clustering");
  ASSERT_NE(clustering, nullptr);
  EXPECT_GT(clustering->counters.cache_misses, 0u);
  const ProfileNode* search = FindProfileNode(profile, "search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->counters.search_expansions, stats.search_expansions);
  // Its children: the table build (a memo miss on this first query) and
  // the waves.
  ASSERT_EQ(search->children.size(), 2u);
  const ProfileNode& tables = profile.nodes()[search->children[0]];
  const ProfileNode& waves = profile.nodes()[search->children[1]];
  EXPECT_EQ(tables.name, "search.tables");
  EXPECT_EQ(tables.counters.cache_misses, 1u);
  EXPECT_EQ(tables.counters.cache_hits, 0u);
  EXPECT_EQ(waves.name, "search.waves");

  // The rendered explain is non-trivially shaped (end-to-end sanity;
  // the format itself is golden-locked in exporter_test).
  std::string explain = RenderExplainAnalyze(profile);
  EXPECT_NE(explain.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(explain.find("└─ search"), std::string::npos) << explain;
  EXPECT_NE(explain.find("├─ search.tables"), std::string::npos) << explain;
  EXPECT_NE(explain.find("└─ search.waves"), std::string::npos) << explain;

  // A repeat reuses the tables, and the profile says so.
  QueryStats again;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &again).ok());
  ASSERT_NE(again.profile, nullptr);
  const ProfileNode* reused = FindProfileNode(*again.profile, "search.tables");
  ASSERT_NE(reused, nullptr);
  EXPECT_EQ(reused->counters.cache_hits, 1u);
  EXPECT_EQ(reused->counters.cache_misses, 0u);
  EXPECT_NE(RenderExplainAnalyze(*again.profile).find("[cache 1 hit / 0 miss]"),
            std::string::npos);
}

TEST(EngineObsTest, ProfileLogRetainsRecentQueriesWithMonotonicIds) {
  EngineOptions options;
  options.obs.profile = true;
  ObsEnv env(options);
  ASSERT_NE(env.engine->profile_log(), nullptr);

  // One query more than the ring holds.
  const size_t n = SamaEngine::kProfileCapacity + 1;
  std::vector<QueryStats> stats(n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &stats[i]).ok());
    EXPECT_EQ(stats[i].profile->id(), i + 1);
  }

  const ProfileLog* log = env.engine->profile_log();
  EXPECT_EQ(log->latest_id(), n);
  EXPECT_EQ(log->Get(1), nullptr);  // Evicted at capacity...
  EXPECT_NE(log->Get(2), nullptr);
  ASSERT_NE(log->Get(n), nullptr);
  EXPECT_EQ(log->Get(n).get(), stats[n - 1].profile.get());  // ...shared.
  // The caller's shared_ptr outlives eviction.
  EXPECT_EQ(stats[0].profile->summary().num_answers, stats[0].num_answers);
}

TEST(EngineObsTest, NoProfileByDefault) {
  ObsEnv env;
  EXPECT_EQ(env.engine->profile_log(), nullptr);
  QueryStats stats;
  ASSERT_TRUE(env.engine->Execute(env.Query1(), 10, &stats).ok());
  EXPECT_EQ(stats.profile, nullptr);
}

TEST(EngineObsTest, ProfileAndTraceComposeAndAnswersUnchanged) {
  ObsEnv plain;
  EngineOptions options;
  options.obs.profile = true;
  options.obs.trace = true;
  ObsEnv profiled(options);

  QueryStats plain_stats, profiled_stats;
  auto a = plain.engine->Execute(plain.Query1(), 10, &plain_stats);
  auto b = profiled.engine->Execute(profiled.Query1(), 10, &profiled_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_NE(profiled_stats.trace, nullptr);
  ASSERT_NE(profiled_stats.profile, nullptr);
  // Both views come from the same spans.
  EXPECT_EQ(profiled_stats.trace->Snapshot().size(),
            profiled_stats.profile->spans().size());

  // Profiling never alters answers (the determinism contract).
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score);
  }
}

}  // namespace
}  // namespace sama
