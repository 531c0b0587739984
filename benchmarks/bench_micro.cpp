// Microbenchmarks (google-benchmark) for the primitive operations the
// paper's complexity claims rest on:
//   * AlignPaths is linear in |p| + |q| (§4.3's O(I) claim);
//   * path enumeration over the data graph;
//   * cluster construction, uncached and warm (ns per candidate);
//   * buffer-pool reads (hit vs miss);
//   * χ/ψ evaluation;
//   * the forest-search kernel, in ns per expansion;
// plus the query hot path in its three cache regimes — cold (pages and
// query caches dropped), warm (pages resident, query memos dropped) and
// memoized (everything resident) — isolating what the buffer pool vs
// the query-side cache layer each buy.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench_util.h"
#include "core/alignment.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "core/forest_search.h"
#include "core/intersection_graph.h"
#include "core/score.h"
#include "datasets/govtrack.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "graph/path_enumerator.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

// Builds a constant path of `length` nodes and a query path of the same
// shape with variables sprinkled in.
struct AlignmentInput {
  std::shared_ptr<TermDictionary> dict;
  Path p;
  Path q;
};

AlignmentInput MakeAlignmentInput(size_t length) {
  AlignmentInput in;
  in.dict = std::make_shared<TermDictionary>();
  for (size_t i = 0; i < length; ++i) {
    in.p.node_labels.push_back(
        in.dict->Intern(Term::Literal("n" + std::to_string(i))));
    in.p.nodes.push_back(static_cast<NodeId>(i));
    in.q.node_labels.push_back(in.dict->Intern(
        i % 3 == 0 ? Term::Variable("v" + std::to_string(i))
                   : Term::Literal("n" + std::to_string(i))));
    in.q.nodes.push_back(static_cast<NodeId>(i));
    if (i + 1 < length) {
      TermId e = in.dict->Intern(Term::Literal("e" + std::to_string(i)));
      in.p.edge_labels.push_back(e);
      in.q.edge_labels.push_back(e);
    }
  }
  return in;
}

void BM_AlignPaths(benchmark::State& state) {
  AlignmentInput in = MakeAlignmentInput(static_cast<size_t>(state.range(0)));
  LabelComparator cmp(in.dict.get(), nullptr);
  ScoreParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AlignPaths(in.p, in.q, cmp, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AlignPaths)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_AlignPathsWithThesaurus(benchmark::State& state) {
  AlignmentInput in = MakeAlignmentInput(64);
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  LabelComparator cmp(in.dict.get(), &thesaurus);
  ScoreParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AlignPaths(in.p, in.q, cmp, params));
  }
}
BENCHMARK(BM_AlignPathsWithThesaurus);

void BM_PathEnumeration(benchmark::State& state) {
  LubmConfig config;
  config.universities = static_cast<size_t>(state.range(0));
  DataGraph graph = DataGraph::FromTriples(GenerateLubm(config));
  for (auto _ : state) {
    size_t count = 0;
    EnumeratePaths(graph, {}, [&count](const Path&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(1)->Arg(2)->Arg(4);

void BM_ClusterConstruction(benchmark::State& state) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  (void)index.Build(graph, PathIndexOptions());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  QueryGraph query = QueryGraph::FromPatterns(GovTrackQuery1Patterns(),
                                              graph.shared_dict());
  ScoreParams params;
  for (auto _ : state) {
    auto clusters =
        BuildClusters(query, index, &thesaurus, params, {});
    benchmark::DoNotOptimize(clusters);
  }
}
BENCHMARK(BM_ClusterConstruction);

// Warm clustering as the engine runs it with its caches on: one build
// outside the timed loop primes the record cache, the alignment memo
// and the shared label-match cache (the engine's sizes), then each
// iteration times BuildClusters plus the clusters' teardown on 1
// thread. Arg 0 is LUBM-1 Q10, arg 1 LUBM-1 Q12. ns_per_candidate
// divides that time by the candidates the clusters hold.
void BM_BuildClustersWarm(benchmark::State& state) {
  LubmConfig config;
  config.universities = 1;
  DataGraph graph = DataGraph::FromTriples(GenerateLubm(config));
  auto parsed =
      ParseSparql(MakeLubmQueries()[state.range(0) == 0 ? 9 : 11].sparql);
  QueryGraph query =
      QueryGraph::FromPatterns(parsed->patterns, graph.shared_dict());
  PathIndex index;
  (void)index.Build(graph, PathIndexOptions());
  index.ConfigureQueryCache(true);
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  ShardedLruCache<uint64_t, LabelMatch> label_matches(1 << 16);
  AlignmentMemo memo(1 << 15);
  QueryCaches caches;
  caches.label_matches = &label_matches;
  caches.alignment_memo = &memo;
  ScoreParams params;
  auto build = [&] {
    return BuildClusters(query, index, &thesaurus, params, {}, nullptr,
                         nullptr, nullptr, nullptr, &caches);
  };
  (void)build();  // Prime.
  uint64_t candidates = 0;
  double nanos = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    {
      auto clusters = build();
      for (const Cluster& c : *clusters) candidates += c.size();
      benchmark::DoNotOptimize(clusters);
    }  // The teardown is timed too.
    nanos += std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  }
  state.counters["candidates"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kAvgIterations);
  state.counters["ns_per_candidate"] =
      candidates == 0 ? 0.0 : nanos / static_cast<double>(candidates);
}
BENCHMARK(BM_BuildClustersWarm)->Arg(0)->Arg(1);

void BM_ChiPsi(benchmark::State& state) {
  Path a, b;
  for (NodeId i = 0; i < 32; ++i) {
    a.nodes.push_back(i);
    a.node_labels.push_back(i);
    b.nodes.push_back(i * 2);
    b.node_labels.push_back(i * 2);
  }
  ScoreParams params;
  for (auto _ : state) {
    size_t chi = ChiSize(a, b);
    benchmark::DoNotOptimize(PsiCost(4, chi, params));
  }
}
BENCHMARK(BM_ChiPsi);

// The forest-search kernel alone, as a warm engine query runs it:
// clusters and search tables are built once, outside the timed loop, and
// SearchForest runs on 1 thread. Arg 0 is GovTrack Q1 (k = 10); arg 1
// LUBM-1 Q4 (exact at k = 5, 2,755 expansions); arg 2 LUBM-1 Q10 (k = 5,
// bound by the 50,000-expansion budget); arg 3 LUBM-1 Q12 (k = 5,
// budget-bound too). The LUBM cases search with ExecuteSparql's
// projection dedup. ns_per_expansion is the time per branch-and-bound
// step.
struct SearchInput {
  std::unique_ptr<DataGraph> graph;
  QueryGraph query;
  std::vector<Cluster> clusters;
  ForestSearchOptions options;
};

SearchInput MakeSearchInput(int which) {
  SearchInput in;
  std::vector<Triple> patterns;
  if (which == 0) {
    in.graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(GovTrackFigure1Triples()));
    patterns = GovTrackQuery1Patterns();
    in.options.k = 10;
  } else {
    LubmConfig config;
    config.universities = 1;
    in.graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(GenerateLubm(config)));
    constexpr size_t kLubmQuery[] = {0, 3, 9, 11};  // Args 1-3: Q4, Q10, Q12.
    auto parsed = ParseSparql(MakeLubmQueries()[kLubmQuery[which]].sparql);
    patterns = parsed->patterns;
    in.options.dedup_vars = parsed->select_vars;
    in.options.k = 5;
  }
  in.query = QueryGraph::FromPatterns(patterns, in.graph->shared_dict());
  PathIndex index;
  (void)index.Build(*in.graph, PathIndexOptions());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  in.clusters = *BuildClusters(in.query, index, &thesaurus, ScoreParams(), {});
  return in;
}

void BM_ForestSearchTopK(benchmark::State& state) {
  SearchInput in = MakeSearchInput(static_cast<int>(state.range(0)));
  IntersectionQueryGraph ig(in.query);
  ScoreParams params;
  auto tables = BuildSearchTables(in.query, ig, in.clusters, params,
                                  in.options.require_connected);
  if (!tables.ok()) {
    state.SkipWithError(tables.status().ToString().c_str());
    return;
  }
  uint64_t expansions = 0;
  double nanos = 0;
  for (auto _ : state) {
    ForestSearchStats stats;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(SearchForest(**tables, in.clusters, params,
                                          in.options, nullptr, nullptr,
                                          &stats));
    nanos += std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    expansions += stats.expansions;
  }
  state.counters["expansions"] = benchmark::Counter(
      static_cast<double>(expansions), benchmark::Counter::kAvgIterations);
  state.counters["ns_per_expansion"] =
      expansions == 0 ? 0.0 : nanos / static_cast<double>(expansions);
}
BENCHMARK(BM_ForestSearchTopK)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The search-table build alone (BuildSearchTables on 1 thread, the
// tables' teardown included): what a warm query saves when the engine's
// memo already holds its shape's tables. Arg 2 is LUBM-1 Q10, arg 3
// LUBM-1 Q12 (MakeSearchInput). us_per_build is the time per build,
// table_bytes the size of one table set.
void BM_SearchTablesBuild(benchmark::State& state) {
  SearchInput in = MakeSearchInput(static_cast<int>(state.range(0)));
  IntersectionQueryGraph ig(in.query);
  ScoreParams params;
  size_t bytes = 0;
  uint64_t builds = 0;
  double nanos = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    {
      auto tables = BuildSearchTables(in.query, ig, in.clusters, params,
                                      in.options.require_connected);
      bytes = tables.ok() ? SearchTablesBytes(**tables) : 0;
      benchmark::DoNotOptimize(tables);
    }
    nanos += std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    ++builds;
  }
  state.counters["us_per_build"] =
      builds == 0 ? 0.0 : nanos / 1e3 / static_cast<double>(builds);
  state.counters["table_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SearchTablesBuild)->Arg(2)->Arg(3);

void BM_OptimalVsGreedyAlignment(benchmark::State& state) {
  AlignmentInput in = MakeAlignmentInput(16);
  LabelComparator cmp(in.dict.get(), nullptr);
  ScoreParams params;
  params.alignment_mode = state.range(0) == 0
                              ? AlignmentMode::kGreedyLinear
                              : AlignmentMode::kOptimalDp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Align(in.p, in.q, cmp, params));
  }
}
BENCHMARK(BM_OptimalVsGreedyAlignment)->Arg(0)->Arg(1);

// Shared disk-backed LUBM environment for the end-to-end query-mode
// benchmarks (built once; google-benchmark re-enters each BM_ body).
struct QueryEnv : bench::LubmEnv {
  QueryGraph query;

  QueryEnv()
      : bench::LubmEnv(bench::MakeLubmEnv(1, /*on_disk=*/true, "micro_query")) {
    auto parsed = ParseSparql(MakeLubmQueries().front().sparql);
    query = parsed->ToQueryGraph(graph->shared_dict());
  }
};

// Destroyed at exit, which removes the index directory.
QueryEnv& GlobalQueryEnv() {
  static QueryEnv env;
  return env;
}

// Cold: every page and every query-side cache entry dropped before each
// query — the first-ever-query latency. An iteration that hits the
// alignment memo or the search-table memo was not cold, and fails.
void BM_QueryColdCache(benchmark::State& state) {
  QueryEnv& env = GlobalQueryEnv();
  for (auto _ : state) {
    state.PauseTiming();
    (void)env.index->DropCaches();  // Pages, candidate lists, records.
    env.engine->DropQueryCaches();  // Label matches, alignments, tables.
    state.ResumeTiming();
    QueryStats stats;
    benchmark::DoNotOptimize(env.engine->Execute(env.query, 10, &stats));
    if (stats.alignment_memo.hits != 0 || stats.search_tables.hits != 0) {
      state.SkipWithError("a cold query hit a query-side memo");
      break;
    }
  }
}
BENCHMARK(BM_QueryColdCache);

// Warm pages, cold memos: what the buffer pool alone buys.
void BM_QueryWarmPages(benchmark::State& state) {
  QueryEnv& env = GlobalQueryEnv();
  (void)env.engine->Execute(env.query, 10);  // Fault the pages in.
  for (auto _ : state) {
    state.PauseTiming();
    env.engine->DropQueryCaches();  // Memos only; pages stay resident.
    state.ResumeTiming();
    benchmark::DoNotOptimize(env.engine->Execute(env.query, 10));
  }
}
BENCHMARK(BM_QueryWarmPages);

// Memoized: pages AND the query-side caches warm — the repeat-query
// latency the sharded cache layer targets.
void BM_QueryMemoized(benchmark::State& state) {
  QueryEnv& env = GlobalQueryEnv();
  (void)env.engine->Execute(env.query, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.engine->Execute(env.query, 10));
  }
}
BENCHMARK(BM_QueryMemoized);

// The observability overhead guard: the memoized hot path with every
// obs feature off. DESIGN.md budgets < 5% against BM_QueryMemoized
// (which runs with the default obs.metrics = true).
void BM_QueryMemoizedNoObs(benchmark::State& state) {
  QueryEnv& env = GlobalQueryEnv();
  EngineOptions options;
  options.obs.metrics = false;
  SamaEngine engine(env.graph.get(), env.index.get(), &env.thesaurus,
                    options);
  (void)engine.Execute(env.query, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(env.query, 10));
  }
}
BENCHMARK(BM_QueryMemoizedNoObs);

// Full tracing on: span records for the query, each phase and every
// scoring chunk. Bounds what `--trace` costs on the hot path.
void BM_QueryMemoizedTraced(benchmark::State& state) {
  QueryEnv& env = GlobalQueryEnv();
  EngineOptions options;
  options.obs.trace = true;
  SamaEngine engine(env.graph.get(), env.index.get(), &env.thesaurus,
                    options);
  (void)engine.Execute(env.query, 10);
  for (auto _ : state) {
    QueryStats stats;
    benchmark::DoNotOptimize(engine.Execute(env.query, 10, &stats));
  }
}
BENCHMARK(BM_QueryMemoizedTraced);

// Full profiling on: span recording plus the post-query phase-tree
// assembly, counter attribution, and ProfileLog retention. Bounds what
// --explain / serve-mode profiling costs on the hot path; compare
// against BM_QueryMemoizedNoObs for the total obs overhead.
void BM_QueryProfiled(benchmark::State& state) {
  QueryEnv& env = GlobalQueryEnv();
  EngineOptions options;
  options.obs.profile = true;
  SamaEngine engine(env.graph.get(), env.index.get(), &env.thesaurus,
                    options);
  (void)engine.Execute(env.query, 10);
  for (auto _ : state) {
    QueryStats stats;
    benchmark::DoNotOptimize(engine.Execute(env.query, 10, &stats));
  }
}
BENCHMARK(BM_QueryProfiled);

// Raw instrument cost: one relaxed counter add (the unit the engine's
// per-query instrument updates are made of).
void BM_MetricsCounterIncrement(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("bench_counter_total", "bench");
  for (auto _ : state) {
    c->Increment();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MetricsCounterIncrement);

// One histogram observation (binary search over 16 bounds + two adds).
void BM_MetricsHistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("bench_latency_millis", "bench",
                                       Histogram::LatencyBucketsMillis());
  double v = 0.1;
  for (auto _ : state) {
    h->Observe(v);
    v = v < 1000 ? v * 1.1 : 0.1;
  }
}
BENCHMARK(BM_MetricsHistogramObserve);

// The alignment-memo hit path, with the query key built once as
// ScoreChunk builds it, against recomputing the alignment.
void BM_AlignmentMemoHitVsDirect(benchmark::State& state) {
  AlignmentInput in = MakeAlignmentInput(64);
  LabelComparator cmp(in.dict.get(), nullptr);
  ScoreParams params;
  AlignmentMemo memo(1024);
  AlignmentMemo::QueryKey key = AlignmentMemo::MakeQueryKey(in.q, cmp, params);
  (void)memo.AlignCached(&key, 1, in.p, in.q, cmp, params);  // Prime.
  if (state.range(0) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(Align(in.p, in.q, cmp, params));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          memo.AlignCached(&key, 1, in.p, in.q, cmp, params));
    }
  }
}
BENCHMARK(BM_AlignmentMemoHitVsDirect)->Arg(0)->Arg(1);

void BM_IndexLookupBySink(benchmark::State& state) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  (void)index.Build(graph, PathIndexOptions());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  Term male = Term::Literal("Male");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.PathsWithSinkMatching(male, &thesaurus));
  }
}
BENCHMARK(BM_IndexLookupBySink);

}  // namespace
}  // namespace sama

BENCHMARK_MAIN();
