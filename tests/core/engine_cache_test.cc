// The engine's query-side cache layer (QueryCacheOptions): warm runs
// must hit every layer and miss none, the search-table memo included;
// answers must be byte-identical with caching on, off, warm or cold,
// incremental updates must invalidate exactly the stale entries, and a
// record that fails its read is NEVER cached — the PR-2 degraded-read
// semantics survive the cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "datasets/govtrack.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

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

// A self-contained graph + index + engine; each engine gets its OWN
// index because ConfigureQueryCache installs the index-side caches
// per index, not per engine.
struct CacheEnv {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus;
  std::unique_ptr<SamaEngine> engine;

  CacheEnv(std::vector<Triple> triples, bool cache_enabled,
           const PathIndexOptions& index_options = {}) {
    graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(std::move(triples)));
    index = std::make_unique<PathIndex>();
    Status s = index->Build(*graph, index_options);
    EXPECT_TRUE(s.ok()) << s.ToString();
    thesaurus = Thesaurus::BuiltinEnglish();
    EngineOptions options;
    options.cache.enabled = cache_enabled;
    engine = std::make_unique<SamaEngine>(graph.get(), index.get(),
                                          &thesaurus, options);
  }

  QueryGraph Parse(const std::string& sparql) {
    auto parsed = ParseSparql(sparql);
    EXPECT_TRUE(parsed.ok()) << parsed.status() << "\n" << sparql;
    return parsed->ToQueryGraph(graph->shared_dict());
  }
};

// The first benchmark query with a non-empty answer set (so warm-path
// and recovery assertions compare something real).
std::string FirstNonEmptyQuery(CacheEnv& env) {
  for (const BenchmarkQuery& bq : MakeLubmQueries()) {
    auto parsed = ParseSparql(bq.sparql);
    if (!parsed.ok()) continue;
    QueryGraph qg = parsed->ToQueryGraph(env.graph->shared_dict());
    auto answers = env.engine->Execute(qg, 10);
    if (answers.ok() && !answers->empty()) return bq.sparql;
  }
  ADD_FAILURE() << "no LUBM benchmark query returned answers";
  return MakeLubmQueries().front().sparql;
}

TEST(EngineCacheTest, WarmRunHitsEveryCacheLayer) {
  LubmConfig config;
  config.universities = 1;
  CacheEnv env(GenerateLubm(config), /*cache_enabled=*/true);
  for (const BenchmarkQuery& bq : MakeLubmQueries()) {
    QueryGraph qg = env.Parse(bq.sparql);
    env.engine->DropQueryCaches();

    QueryStats cold;
    auto first = env.engine->Execute(qg, 10, &cold);
    ASSERT_TRUE(first.ok()) << bq.name << ": " << first.status();
    QueryStats warm;
    auto second = env.engine->Execute(qg, 10, &warm);
    ASSERT_TRUE(second.ok()) << bq.name << ": " << second.status();

    EXPECT_EQ(Signature(*second), Signature(*first)) << bq.name;
    // The repeat query must be served from the caches alone:
    // candidate-list lookups, path records and full alignments all
    // repeat verbatim, so not one of them misses.
    EXPECT_GT(warm.path_lookup_cache.hits, 0u) << bq.name;
    EXPECT_GT(warm.path_record_cache.hits, 0u) << bq.name;
    EXPECT_GT(warm.alignment_memo.hits, 0u) << bq.name;
    EXPECT_EQ(warm.path_lookup_cache.misses, 0u) << bq.name;
    EXPECT_EQ(warm.path_record_cache.misses, 0u) << bq.name;
    EXPECT_EQ(warm.alignment_memo.misses, 0u) << bq.name;
    // And the cold run populated rather than hit the lookup memo.
    EXPECT_GT(cold.path_lookup_cache.insertions, 0u) << bq.name;
    // The search tables: built and stored once, then reused.
    EXPECT_EQ(cold.search_tables.misses, 1u) << bq.name;
    EXPECT_EQ(cold.search_tables.insertions, 1u) << bq.name;
    EXPECT_EQ(warm.search_tables.hits, 1u) << bq.name;
    EXPECT_EQ(warm.search_tables.misses, 0u) << bq.name;
  }
}

TEST(EngineCacheTest, DisabledCachesReportNoActivity) {
  LubmConfig config;
  config.universities = 1;
  CacheEnv env(GenerateLubm(config), /*cache_enabled=*/false);
  QueryGraph qg = env.Parse(MakeLubmQueries().front().sparql);
  QueryStats stats;
  for (int run = 0; run < 2; ++run) {
    auto answers = env.engine->Execute(qg, 10, &stats);
    ASSERT_TRUE(answers.ok()) << answers.status();
  }
  EXPECT_EQ(stats.posting_cache.lookups(), 0u);
  EXPECT_EQ(stats.path_lookup_cache.lookups(), 0u);
  EXPECT_EQ(stats.path_record_cache.lookups(), 0u);
  EXPECT_EQ(stats.label_match_cache.lookups(), 0u);
  EXPECT_EQ(stats.alignment_memo.lookups(), 0u);
  EXPECT_EQ(stats.search_tables.lookups(), 0u);
  EXPECT_EQ(stats.search_tables.insertions, 0u);
  // (The thesaurus relatedness memo is internal to Thesaurus and not
  // governed by QueryCacheOptions.)
}

TEST(EngineCacheTest, AnswersIdenticalWithCachesOnAndOff) {
  LubmConfig config;
  config.universities = 1;
  CacheEnv cached(GenerateLubm(config), /*cache_enabled=*/true);
  CacheEnv uncached(GenerateLubm(config), /*cache_enabled=*/false);
  for (const BenchmarkQuery& bq : MakeLubmQueries()) {
    QueryGraph qc = cached.Parse(bq.sparql);
    QueryGraph qu = uncached.Parse(bq.sparql);
    auto reference = uncached.engine->Execute(qu, 10);
    ASSERT_TRUE(reference.ok()) << bq.name << ": " << reference.status();
    // Cold then warm: both must match the uncached reference exactly.
    auto cold = cached.engine->Execute(qc, 10);
    ASSERT_TRUE(cold.ok()) << bq.name << ": " << cold.status();
    auto warm = cached.engine->Execute(qc, 10);
    ASSERT_TRUE(warm.ok()) << bq.name << ": " << warm.status();
    EXPECT_EQ(Signature(*cold), Signature(*reference))
        << bq.name << " (cold) diverges from the uncached engine";
    EXPECT_EQ(Signature(*warm), Signature(*reference))
        << bq.name << " (warm) diverges from the uncached engine";
  }
}

TEST(EngineCacheTest, AddTripleKeepsWarmCachesCorrect) {
  CacheEnv cached(GovTrackFigure1Triples(), /*cache_enabled=*/true);
  CacheEnv uncached(GovTrackFigure1Triples(), /*cache_enabled=*/false);
  QueryGraph qc = cached.engine->BuildQueryGraph(GovTrackQuery1Patterns());
  QueryGraph qu = uncached.engine->BuildQueryGraph(GovTrackQuery1Patterns());

  // Warm every cache layer before the update.
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(cached.engine->Execute(qc, 10).ok());
  }

  // A new sponsor edge: creates new source→sink paths through A0056.
  auto gov = [](const std::string& local) {
    return Term::Iri("http://gov.example.org/" + local);
  };
  Triple extension{gov("NewSenator"), gov("sponsor"), gov("A0056")};
  uint64_t before = cached.index->path_count();
  ASSERT_TRUE(cached.index->AddTriple(cached.graph.get(), extension).ok());
  ASSERT_TRUE(uncached.index->AddTriple(uncached.graph.get(), extension).ok());
  ASSERT_GT(cached.index->path_count(), before)
      << "extension created no paths; the invalidation test is vacuous";

  auto got = cached.engine->Execute(qc, 10);
  auto want = uncached.engine->Execute(qu, 10);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(Signature(*got), Signature(*want))
      << "warm caches served stale entries across AddTriple";
}

TEST(EngineCacheTest, FailedRecordReadsAreNeverCached) {
  std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "sama_engine_cache_io")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FaultyEnv fenv;
  PathIndexOptions index_options;
  index_options.dir = dir;
  index_options.env = &fenv;
  LubmConfig config;
  config.universities = 1;
  CacheEnv env(GenerateLubm(config), /*cache_enabled=*/true, index_options);
  QueryGraph qg = env.Parse(FirstNonEmptyQuery(env));

  auto clean = env.engine->Execute(qg, 10);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_FALSE(clean->empty());
  std::string expected = Signature(*clean);

  // Force disk reads (page cache + query caches emptied), then fail
  // every read: candidates are skipped, not cached, not answered.
  ASSERT_TRUE(env.index->DropCaches().ok());
  FaultSpec all_reads_fail;
  all_reads_fail.fail_after = 0;
  fenv.Arm(IoOp::kRead, all_reads_fail);
  CacheCounters records_before = env.index->query_cache_counters().records;
  QueryStats degraded_stats;
  auto degraded = env.engine->Execute(qg, 10, &degraded_stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->empty());
  EXPECT_GT(degraded_stats.corrupt_records_skipped, 0u);
  CacheCounters records_after = env.index->query_cache_counters().records;
  EXPECT_EQ(records_after.insertions, records_before.insertions)
      << "a failed read was inserted into the record cache";

  // Heal the env: the full answer set must come back. A cached failure
  // anywhere would keep the query degraded.
  fenv.Reset(0x5a5aF417ULL);
  auto recovered = env.engine->Execute(qg, 10);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(Signature(*recovered), expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sama
