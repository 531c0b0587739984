// The sharded-search correctness contract (DESIGN.md §14): for every
// shard count, thread count and search budget, ShardedEngine returns
// answers byte-identical — same combinations, same score decomposition,
// same tie-break order, same global path ids — to a single-index serial
// SamaEngine run with the same options, truncated queries included.
// Exercised over all three synthetic dataset generators at several k,
// because tie density is what breaks naive cross-shard top-k merges.
// Also covers the degraded path (a damaged shard must cost candidates,
// not correctness) and that no state leaks between queries.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "datasets/berlin.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "datasets/scale_free.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "query/sparql.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

constexpr size_t kShardCounts[] = {2, 4, 8};
constexpr size_t kThreadCounts[] = {1, 4};
constexpr size_t kTopK[] = {1, 5, 20};

// Every engine runs at two expansion budgets: an ample one, under which
// most queries complete, and the engine default, under which the
// broad LUBM queries truncate. A sharded engine runs one search over
// the single index's candidate lists, so truncated answers must match
// byte for byte too.
std::vector<size_t> Budgets() {
  return {200000, ForestSearchOptions().max_expansions};
}

// Same lossless signature as the parallel-determinism suite: %.17g
// scores, (query path slot, data path id) parts in answer order. The
// sharded engine reports GLOBAL path ids, so the ids must match the
// single index literally.
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

void RemoveTree(const std::string& base) {
  Env* env = Env::Default();
  auto entries = env->ListDir(base);
  if (!entries.ok()) return;
  for (const std::string& name : *entries) {
    std::string path = base + "/" + name;
    auto sub = env->ListDir(path);
    if (sub.ok()) {
      for (const std::string& inner : *sub) {
        env->RemoveFile(path + "/" + inner).ok();
      }
      env->RemoveDir(path).ok();
    } else {
      env->RemoveFile(path).ok();
    }
  }
  env->RemoveDir(base).ok();
}

// One dataset: the single-index serial reference plus one
// ShardedEngine per (shard count × thread count), all over one shared
// graph/dictionary/thesaurus. Engines are constructed per expansion
// budget (WithBudget).
class Env2 {
 public:
  // WithBudget's engine number of the single-index serial reference.
  static constexpr size_t kSerial = static_cast<size_t>(-1);

  Env2(const std::string& name, std::vector<Triple> triples)
      : graph_(std::make_unique<DataGraph>(
            DataGraph::FromTriples(std::move(triples)))) {
    single_index_ = std::make_unique<PathIndex>();
    Status s = single_index_->Build(*graph_, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s;
    thesaurus_ = Thesaurus::BuiltinEnglish();
    for (size_t shards : kShardCounts) {
      std::string dir = testing::TempDir() + "/sdet_" + name + "_" +
                        std::to_string(shards);
      RemoveTree(dir);
      ShardedIndexOptions options;
      options.num_shards = shards;
      Status built = BuildShardedIndex(*graph_, dir, options);
      EXPECT_TRUE(built.ok()) << built;
      auto index = std::make_unique<ShardedIndex>();
      Status opened = index->Open(graph_.get(), dir, /*strict=*/true);
      EXPECT_TRUE(opened.ok()) << opened;
      for (size_t threads : kThreadCounts) {
        engines_.push_back({index.get(), threads});
        labels_.push_back(std::to_string(shards) + " shards, " +
                          std::to_string(threads) + " threads");
      }
      indexes_.push_back(std::move(index));
    }
  }

  // Sharded engine `i` (or kSerial) constructed with its search budget
  // set to `budget`.
  SamaEngine WithBudget(size_t i, size_t budget) const {
    EngineOptions options;
    options.search.max_expansions = budget;
    if (i == kSerial) {
      return SamaEngine(graph_.get(), single_index_.get(), &thesaurus_,
                        options);
    }
    options.num_threads = engines_[i].threads;
    options.obs.metrics = false;
    return ShardedEngine(graph_.get(), engines_[i].index, &thesaurus_,
                         options);
  }

  QueryGraph Parse(const std::string& sparql) {
    auto parsed = ParseSparql(sparql);
    EXPECT_TRUE(parsed.ok()) << parsed.status() << "\n" << sparql;
    return parsed->ToQueryGraph(graph_->shared_dict());
  }

  // Sharded == single-index serial — answers, expansions and the
  // truncation flag — at every budget and k, for every shard/thread
  // combination. Counts the truncated references so the suite can
  // assert that truncation is actually compared.
  void CheckQuery(const std::string& name, const QueryGraph& query) {
    for (size_t budget : Budgets()) {
      SamaEngine serial = WithBudget(kSerial, budget);
      std::vector<SamaEngine> sharded;
      for (size_t i = 0; i < engines_.size(); ++i) {
        sharded.push_back(WithBudget(i, budget));
      }
      for (size_t k : kTopK) {
        QueryStats serial_stats;
        auto want = serial.Execute(query, k, &serial_stats);
        ASSERT_TRUE(want.ok()) << name << " k=" << k << ": " << want.status();
        if (serial_stats.search_truncated) ++truncated_references_;
        std::string expected = Signature(*want);
        for (size_t i = 0; i < sharded.size(); ++i) {
          QueryStats stats;
          auto got = sharded[i].Execute(query, k, &stats);
          ASSERT_TRUE(got.ok()) << name << " k=" << k << " (" << labels_[i]
                                << "): " << got.status();
          EXPECT_EQ(Signature(*got), expected)
              << name << " diverges from the single index at k=" << k
              << ", budget " << budget << " with " << labels_[i];
          EXPECT_EQ(stats.search_expansions, serial_stats.search_expansions)
              << name << " k=" << k << ", budget " << budget << " ("
              << labels_[i] << ")";
          EXPECT_EQ(stats.search_truncated, serial_stats.search_truncated);
          EXPECT_EQ(stats.shards_degraded, 0u);
        }
      }
    }
  }

  // Same check through the SPARQL front door (dedup/filter/limit).
  void CheckSparql(const std::string& name, const std::string& text) {
    auto parsed = ParseSparql(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    for (size_t budget : Budgets()) {
      auto want = WithBudget(kSerial, budget).ExecuteSparql(*parsed, 10);
      ASSERT_TRUE(want.ok()) << name << ": " << want.status();
      std::string expected = Signature(*want);
      for (size_t i = 0; i < engines_.size(); ++i) {
        auto got = WithBudget(i, budget).ExecuteSparql(*parsed, 10);
        ASSERT_TRUE(got.ok()) << name << " (" << labels_[i]
                              << "): " << got.status();
        EXPECT_EQ(Signature(*got), expected)
            << name << " (SPARQL) diverges at budget " << budget << " with "
            << labels_[i];
      }
    }
  }

  size_t truncated_references() const { return truncated_references_; }

 private:
  // What a sharded engine runs over.
  struct ShardedSetup {
    const ShardedIndex* index = nullptr;
    size_t threads = 1;
  };

  std::unique_ptr<DataGraph> graph_;
  std::unique_ptr<PathIndex> single_index_;
  Thesaurus thesaurus_;
  std::vector<std::unique_ptr<ShardedIndex>> indexes_;
  std::vector<ShardedSetup> engines_;
  std::vector<std::string> labels_;
  size_t truncated_references_ = 0;
};

TEST(ShardedDeterminismTest, LubmWorkloadMatchesSingleIndex) {
  LubmConfig config;
  config.universities = 1;
  Env2 env("lubm", GenerateLubm(config));
  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  for (size_t i = 0; i < queries.size(); i += 3) {
    env.CheckQuery(queries[i].name, env.Parse(queries[i].sparql));
  }
  // The default budget truncates the broad queries; those references
  // must have been compared like every other.
  EXPECT_GT(env.truncated_references(), 0u);
}

TEST(ShardedDeterminismTest, LubmSparqlFrontDoorMatches) {
  LubmConfig config;
  config.universities = 1;
  Env2 env("lubm_sparql", GenerateLubm(config));
  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  env.CheckSparql(queries[1].name, queries[1].sparql);
  // DISTINCT exercises dedup over the merged candidate lists.
  env.CheckSparql("distinct",
                  "PREFIX ub: <http://lubm.example.org/univ-bench#> "
                  "SELECT DISTINCT ?t WHERE { ?p ub:teacherOf ?c . "
                  "?p ub:worksFor ?t }");
}

TEST(ShardedDeterminismTest, BerlinWorkloadMatchesSingleIndex) {
  BerlinConfig config;
  config.products = 100;
  Env2 env("berlin", GenerateBerlin(config));
  std::vector<BenchmarkQuery> queries = MakeBerlinQueries();
  for (size_t i = 0; i < queries.size(); i += 2) {
    env.CheckQuery(queries[i].name, env.Parse(queries[i].sparql));
  }
}

TEST(ShardedDeterminismTest, ScaleFreeMatchesSingleIndex) {
  ScaleFreeProfile profile;
  profile.num_entities = 600;
  profile.seed = 42;
  Env2 env("scalefree", GenerateScaleFree(profile));
  const std::string rel = "http://scale-free.example.org/rel#";
  const std::string ent = "http://scale-free.example.org/";
  env.CheckQuery(
      "chain",
      env.Parse("SELECT ?x WHERE { ?x <" + rel + "linksTo> ?y . ?y <" +
                rel + "linksTo> ?z . ?z <" + rel + "tag> \"red\" }"));
  env.CheckQuery(
      "hub-star",
      env.Parse("SELECT ?x WHERE { ?x <" + rel + "linksTo> <" + ent +
                "Entity0> . ?x <" + rel + "tag> ?t }"));
}

TEST(ShardedDeterminismTest, NoCandidatesStillMatches) {
  LubmConfig config;
  config.universities = 1;
  Env2 env("lubm_empty", GenerateLubm(config));
  // Nothing in LUBM matches this vocabulary: every cluster is empty,
  // which exercises the no-join-positions special case.
  env.CheckQuery(
      "no-match",
      env.Parse("SELECT ?x WHERE { ?x <http://nowhere.example.org/p> "
                "<http://nowhere.example.org/o> }"));
}

TEST(ShardedDeterminismTest, NoStateLeaksAcrossQueries) {
  LubmConfig config;
  config.universities = 1;
  Env2 env("lubm_leak", GenerateLubm(config));
  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  // A selective query first, then a broad one: the broad query must
  // match the single index — nothing the first query left in the
  // shared caches and memos may change it — at both budgets.
  QueryGraph selective = env.Parse(queries[0].sparql);
  QueryGraph broad = env.Parse(queries[6].sparql);
  for (size_t budget : Budgets()) {
    auto broad_serial =
        env.WithBudget(Env2::kSerial, budget).Execute(broad, 20);
    ASSERT_TRUE(broad_serial.ok());
    std::string expected = Signature(*broad_serial);
    SamaEngine sharded = env.WithBudget(0, budget);
    ASSERT_TRUE(sharded.Execute(selective, 1).ok());
    auto broad_after = sharded.Execute(broad, 20);
    ASSERT_TRUE(broad_after.ok());
    EXPECT_EQ(Signature(*broad_after), expected) << "budget " << budget;
    // And byte-stability across repeated identical executions.
    auto again = sharded.Execute(broad, 20);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(Signature(*again), expected) << "budget " << budget;
  }
}

TEST(ShardedDeterminismTest, DegradedShardCostsCandidatesNotCorrectness) {
  LubmConfig config;
  config.universities = 1;
  DataGraph graph = DataGraph::FromTriples(GenerateLubm(config));
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  std::string dir = testing::TempDir() + "/sdet_degraded";
  RemoveTree(dir);
  ShardedIndexOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph, dir, options).ok());
  ASSERT_TRUE(
      Env::Default()->RemoveFile(dir + "/shard-0001/index.meta").ok());

  ShardedIndex index;
  ASSERT_TRUE(index.Open(&graph, dir, /*strict=*/false).ok());
  ASSERT_EQ(index.degraded_shards(), 1u);
  EngineOptions engine_options;
  engine_options.obs.metrics = false;
  ShardedEngine engine(&graph, &index, &thesaurus, engine_options);

  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  for (size_t i = 0; i < queries.size(); i += 4) {
    auto parsed = ParseSparql(queries[i].sparql);
    ASSERT_TRUE(parsed.ok());
    QueryGraph qg = parsed->ToQueryGraph(graph.shared_dict());
    QueryStats stats;
    auto got = engine.Execute(qg, 10, &stats);
    // A degraded shard must never fail the query...
    ASSERT_TRUE(got.ok()) << queries[i].name << ": " << got.status();
    EXPECT_EQ(stats.shards_degraded, 1u);
    // ...and every returned answer must use only shard-0 paths.
    for (const Answer& a : *got) {
      for (const ScoredPath& sp : a.parts) {
        EXPECT_EQ(index.OwnerOf(sp.id), 0u);
      }
    }
    // Determinism holds among the survivors too.
    auto again = engine.Execute(qg, 10);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(Signature(*again), Signature(*got));
  }
}

}  // namespace
}  // namespace sama
