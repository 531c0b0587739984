// The determinism contract of parallel query execution: for any thread
// count, SamaEngine::Execute returns bit-identical answers — same
// combinations, same scores, same tie-break order — as the serial run.
// Exercised over all three synthetic dataset generators and several k,
// since tie density (LUBM's regular structure produces many equal-λ
// candidates) is exactly what breaks naive parallel top-k merges.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datasets/berlin.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "datasets/scale_free.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

constexpr size_t kThreadCounts[] = {2, 4, 8};
constexpr size_t kTopK[] = {1, 5, 20};

// A lossless textual signature of a result list. Scores are printed
// with %.17g (round-trip exact for double), parts by (query path slot,
// data path id); answer order is preserved, so any tie-break
// divergence between runs changes the signature.
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

// One dataset + the serial reference engine and one engine per thread
// count, all sharing the same graph/index/thesaurus.
class Env {
 public:
  explicit Env(std::vector<Triple> triples)
      : graph_(std::make_unique<DataGraph>(
            DataGraph::FromTriples(std::move(triples)))),
        index_(std::make_unique<PathIndex>()) {
    Status s = index_->Build(*graph_, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
    thesaurus_ = Thesaurus::BuiltinEnglish();
    serial_ = MakeEngine(1);
    for (size_t threads : kThreadCounts) {
      parallel_.push_back(MakeEngine(threads));
    }
  }

  QueryGraph Parse(const std::string& sparql) {
    auto parsed = ParseSparql(sparql);
    EXPECT_TRUE(parsed.ok()) << parsed.status() << "\n" << sparql;
    return parsed->ToQueryGraph(graph_->shared_dict());
  }

  const DataGraph& graph() const { return *graph_; }

  // Runs `query` at every k on the serial engine and on every parallel
  // engine and asserts identical signatures.
  void CheckQuery(const std::string& name, const QueryGraph& query) {
    for (size_t k : kTopK) {
      auto serial = serial_->Execute(query, k);
      ASSERT_TRUE(serial.ok()) << name << " k=" << k << ": "
                               << serial.status();
      std::string expected = Signature(*serial);
      for (size_t i = 0; i < parallel_.size(); ++i) {
        QueryStats stats;
        auto got = parallel_[i]->Execute(query, k, &stats);
        ASSERT_TRUE(got.ok()) << name << " k=" << k << ": " << got.status();
        EXPECT_EQ(stats.threads_used, kThreadCounts[i]);
        EXPECT_EQ(Signature(*got), expected)
            << name << " diverges from serial at k=" << k << " with "
            << kThreadCounts[i] << " threads";
      }
    }
  }

 private:
  std::unique_ptr<SamaEngine> MakeEngine(size_t threads) {
    EngineOptions options;
    options.num_threads = threads;
    return std::make_unique<SamaEngine>(graph_.get(), index_.get(),
                                        &thesaurus_, options);
  }

  std::unique_ptr<DataGraph> graph_;
  std::unique_ptr<PathIndex> index_;
  Thesaurus thesaurus_;
  std::unique_ptr<SamaEngine> serial_;
  std::vector<std::unique_ptr<SamaEngine>> parallel_;
};

TEST(ParallelDeterminismTest, LubmWorkloadMatchesSerial) {
  LubmConfig config;
  config.universities = 1;
  Env env(GenerateLubm(config));
  // Every third benchmark query: one from each |Q| complexity group,
  // exact and relaxed alike, keeps the test minutes-safe.
  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  for (size_t i = 0; i < queries.size(); i += 3) {
    env.CheckQuery(queries[i].name, env.Parse(queries[i].sparql));
  }
}

TEST(ParallelDeterminismTest, BerlinWorkloadMatchesSerial) {
  BerlinConfig config;
  config.products = 100;
  Env env(GenerateBerlin(config));
  std::vector<BenchmarkQuery> queries = MakeBerlinQueries();
  for (size_t i = 0; i < queries.size(); i += 2) {
    env.CheckQuery(queries[i].name, env.Parse(queries[i].sparql));
  }
}

TEST(ParallelDeterminismTest, ScaleFreeMatchesSerial) {
  ScaleFreeProfile profile;
  profile.num_entities = 600;
  profile.seed = 42;
  Env env(GenerateScaleFree(profile));
  const std::string rel = "http://scale-free.example.org/rel#";
  const std::string ent = "http://scale-free.example.org/";
  // A chain ending in an attribute and a star aimed at the oldest
  // (highest in-degree) hub entity.
  env.CheckQuery(
      "chain",
      env.Parse("SELECT ?x WHERE { ?x <" + rel + "linksTo> ?y . ?y <" +
                rel + "linksTo> ?z . ?z <" + rel + "tag> \"red\" }"));
  env.CheckQuery(
      "hub-star",
      env.Parse("SELECT ?x WHERE { ?x <" + rel + "linksTo> <" + ent +
                "Entity0> . ?x <" + rel + "tag> ?t }"));
}

// A graph with its own index and one engine (engine construction
// configures the index's caches, so engines with different cache
// settings need separate indexes).
struct OwnedEngine {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  std::unique_ptr<SamaEngine> engine;

  OwnedEngine(std::vector<Triple> triples, bool cache_enabled) {
    graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(std::move(triples)));
    index = std::make_unique<PathIndex>();
    Status s = index->Build(*graph, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
    EngineOptions options;
    options.cache.enabled = cache_enabled;
    engine = std::make_unique<SamaEngine>(graph.get(), index.get(),
                                          &thesaurus, options);
  }
};

// Four threads run one query shape at once on one engine: the first
// queries race to build and store its search tables while the others
// read them from the memo. Every answer list must equal the caches-off
// engine's, and each query must look the memo up exactly once.
TEST(SearchTableMemoConcurrencyTest, FourThreadsShareOneShape) {
  LubmConfig config;
  config.universities = 1;
  OwnedEngine cached(GenerateLubm(config), /*cache_enabled=*/true);
  OwnedEngine uncached(GenerateLubm(config), /*cache_enabled=*/false);
  auto parsed = ParseSparql(MakeLubmQueries()[5].sparql);  // Q6.
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto reference = uncached.engine->ExecuteSparql(*parsed, 5);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->empty());
  const std::string expected = Signature(*reference);

  constexpr size_t kThreads = 4;
  constexpr size_t kRuns = 8;
  std::vector<std::string> got(kThreads * kRuns);
  std::vector<CacheCounters> lookups(kThreads * kRuns);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (size_t r = 0; r < kRuns; ++r) {
        QueryStats stats;
        auto answers = cached.engine->ExecuteSparql(*parsed, 5, &stats);
        got[t * kRuns + r] = answers.ok() ? Signature(*answers)
                                          : answers.status().ToString();
        lookups[t * kRuns + r] = stats.search_tables;
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  CacheCounters total;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected) << "query " << i;
    EXPECT_EQ(lookups[i].lookups(), 1u) << "query " << i;
    total += lookups[i];
  }
  EXPECT_GE(total.misses, 1u);
  EXPECT_GE(total.insertions, 1u);
  EXPECT_LE(total.misses, kThreads);  // Only queries racing the first.
}

}  // namespace
}  // namespace sama
