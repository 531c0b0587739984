// The engine's forest-search table memo (DESIGN.md §8): a query shape
// reuses the tables an earlier search of it built only while its fresh
// clusters are exactly the ones the tables came from. A memo hit must
// answer byte for byte like an engine without caches, whatever the
// search options (k, SELECT dedup, FILTER), and an update that changes
// the clusters must miss.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/berlin.h"
#include "datasets/govtrack.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

constexpr size_t kTopK[] = {1, 5, 20};
constexpr size_t kThreadCounts[] = {1, 4};

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

// A graph, its own index (engine construction configures the index's
// caches) and one engine.
struct MemoEnv {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  std::unique_ptr<SamaEngine> engine;

  MemoEnv(std::vector<Triple> triples, bool cache_enabled,
          size_t num_threads = 1) {
    graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(std::move(triples)));
    index = std::make_unique<PathIndex>();
    Status s = index->Build(*graph, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
    EngineOptions options;
    options.cache.enabled = cache_enabled;
    options.num_threads = num_threads;
    engine = std::make_unique<SamaEngine>(graph.get(), index.get(),
                                          &thesaurus, options);
  }
};

// `sparql` with one more FILTER clause over its SELECT variables.
std::string WithFilter(const std::string& sparql, const SparqlQuery& parsed) {
  const std::vector<std::string>& vars = parsed.select_vars;
  std::string filter =
      vars.size() >= 2
          ? " FILTER(?" + vars[0] + " != ?" + vars[1] + ")"
          : " FILTER regex(?" + vars[0] + ", \"1\")";
  const size_t close = sparql.rfind('}');
  return sparql.substr(0, close) + filter + " " + sparql.substr(close);
}

// For every query: ExecuteSparql with the SELECT dedup and an added
// FILTER, then Execute on the same shape, at every k. Only the first
// call builds the shape's tables; every later one must hit the memo and
// still answer like the caches-off engine.
void CheckHitsAnswerLikeCachesOff(const std::vector<Triple>& triples,
                                  const std::vector<BenchmarkQuery>& queries,
                                  size_t threads) {
  MemoEnv cached(triples, /*cache_enabled=*/true, threads);
  MemoEnv uncached(triples, /*cache_enabled=*/false, threads);
  for (const BenchmarkQuery& bq : queries) {
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << bq.name << ": " << parsed.status();
    auto filtered = ParseSparql(WithFilter(bq.sparql, *parsed));
    ASSERT_TRUE(filtered.ok()) << bq.name << ": " << filtered.status();
    ASSERT_FALSE(filtered->filters.empty()) << bq.name;
    QueryGraph qc = parsed->ToQueryGraph(cached.graph->shared_dict());
    QueryGraph qu = parsed->ToQueryGraph(uncached.graph->shared_dict());
    bool first = true;
    for (size_t k : kTopK) {
      const std::string where = bq.name + " k=" + std::to_string(k) +
                                " threads=" + std::to_string(threads);
      QueryStats sparql_stats;
      auto got = cached.engine->ExecuteSparql(*filtered, k, &sparql_stats);
      auto want = uncached.engine->ExecuteSparql(*filtered, k);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status();
      ASSERT_TRUE(want.ok()) << where << ": " << want.status();
      EXPECT_EQ(Signature(*got), Signature(*want)) << where << " (sparql)";
      EXPECT_EQ(sparql_stats.search_tables.hits, first ? 0u : 1u) << where;
      EXPECT_EQ(sparql_stats.search_tables.misses, first ? 1u : 0u) << where;
      first = false;

      QueryStats plain_stats;
      got = cached.engine->Execute(qc, k, &plain_stats);
      want = uncached.engine->Execute(qu, k);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status();
      ASSERT_TRUE(want.ok()) << where << ": " << want.status();
      EXPECT_EQ(Signature(*got), Signature(*want)) << where << " (execute)";
      EXPECT_EQ(plain_stats.search_tables.hits, 1u) << where;
      EXPECT_EQ(plain_stats.search_tables.misses, 0u) << where;
    }
  }
}

TEST(SearchTableMemoTest, LubmHitsAnswerLikeCachesOff) {
  LubmConfig config;
  config.universities = 1;
  for (size_t threads : kThreadCounts) {
    CheckHitsAnswerLikeCachesOff(GenerateLubm(config), MakeLubmQueries(),
                                 threads);
  }
}

TEST(SearchTableMemoTest, BerlinHitsAnswerLikeCachesOff) {
  BerlinConfig config;
  config.products = 100;
  for (size_t threads : kThreadCounts) {
    CheckHitsAnswerLikeCachesOff(GenerateBerlin(config), MakeBerlinQueries(),
                                 threads);
  }
}

Term Gov(const std::string& local) {
  return Term::Iri("http://gov.example.org/" + local);
}

// Applies `triple` to both environments' indexes and checks the next
// cached query against the caches-off engine; returns its memo counters.
CacheCounters QueryAfterUpdate(MemoEnv& cached, MemoEnv& uncached,
                               const Triple& triple) {
  EXPECT_TRUE(cached.index->AddTriple(cached.graph.get(), triple).ok());
  EXPECT_TRUE(uncached.index->AddTriple(uncached.graph.get(), triple).ok());
  QueryStats stats;
  auto got = cached.engine->Execute(
      cached.engine->BuildQueryGraph(GovTrackQuery1Patterns()), 10, &stats);
  auto want = uncached.engine->Execute(
      uncached.engine->BuildQueryGraph(GovTrackQuery1Patterns()), 10);
  EXPECT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(want.ok()) << want.status();
  if (got.ok() && want.ok()) {
    EXPECT_EQ(Signature(*got), Signature(*want));
  }
  return stats.search_tables;
}

TEST(SearchTableMemoTest, UpdatesMissOnlyWhenTheyChangeTheClusters) {
  MemoEnv cached(GovTrackFigure1Triples(), /*cache_enabled=*/true);
  MemoEnv uncached(GovTrackFigure1Triples(), /*cache_enabled=*/false);
  QueryGraph query = cached.engine->BuildQueryGraph(GovTrackQuery1Patterns());
  QueryStats stats;
  ASSERT_TRUE(cached.engine->Execute(query, 10, &stats).ok());
  EXPECT_EQ(stats.search_tables.insertions, 1u);
  ASSERT_TRUE(cached.engine->Execute(query, 10, &stats).ok());
  EXPECT_EQ(stats.search_tables.hits, 1u);

  // A path no cluster of the query can hold: its labels match none of
  // the query's.
  CacheCounters unrelated = QueryAfterUpdate(
      cached, uncached,
      {Gov("Archive"), Gov("shelvedAt"), Term::Literal("Basement")});
  EXPECT_EQ(unrelated.hits, 1u);
  EXPECT_EQ(unrelated.misses, 0u);

  // A new sponsor of A0056 creates paths into the query's clusters.
  const uint64_t paths_before = cached.index->path_count();
  CacheCounters touched = QueryAfterUpdate(
      cached, uncached, {Gov("NewSenator"), Gov("sponsor"), Gov("A0056")});
  ASSERT_GT(cached.index->path_count(), paths_before);
  EXPECT_EQ(touched.hits, 0u);
  EXPECT_EQ(touched.misses, 1u);
  // The stale entry was dropped rather than replaced: the next query of
  // the shape stores its build, and the one after it hits.
  ASSERT_TRUE(cached.engine->Execute(query, 10, &stats).ok());
  EXPECT_EQ(stats.search_tables.misses, 1u);
  EXPECT_EQ(stats.search_tables.insertions, 1u);
  ASSERT_TRUE(cached.engine->Execute(query, 10, &stats).ok());
  EXPECT_EQ(stats.search_tables.hits, 1u);
}

}  // namespace
}  // namespace sama
