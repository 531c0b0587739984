// A differential oracle for the forest-search kernel. A brute-force
// enumeration, which shares none of the kernel's tables, join order,
// connectivity rows or prefix slots, lists every combination of one path
// per non-empty cluster whose paths share a node along every
// intersection-query-graph edge, and scores it by Λ + Ψ plus the
// empty-cluster penalty. ForestSearch must find exactly that set at
// k = 0 (with a budget that lets it finish, including one that forces
// retry rounds), and the k best of it at k = 1 and 5, at 1 and 4
// threads. The inputs are LUBM-1 Q6–Q12, Berlin B1–B6 and queries
// sampled around a hub of seeded scale-free graphs (SAMA_TORTURE_SEED
// picks another graph), each cluster cut to a few candidates
// (Supported) so that the cross product stays under 10^6.
//
// The second suite pins the prefix-slot counters: equal at 1 and 4
// threads, and mostly reuses, on heavy's LUBM-1 queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "core/forest_search.h"
#include "core/intersection_graph.h"
#include "core/score.h"
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

// The most combinations a capped input may have, the most connected ones
// (each becomes an Answer at k = 0), and the caps tried, largest first.
constexpr double kMaxProduct = 1e6;
constexpr size_t kMaxAnswers = 1000;
constexpr size_t kCaps[] = {32, 24, 16, 12, 8, 6, 4, 3, 2, 1};
// A budget no input here can exhaust.
constexpr size_t kUnbounded = size_t{1} << 40;

// A combination's parts in cluster order: (query path, path id).
using Combo = std::vector<std::pair<size_t, PathId>>;

// Every connected combination of `clusters` with its score; false when
// there are more than `limit`.
bool BruteForce(const QueryGraph& query, const IntersectionQueryGraph& ig,
                const std::vector<Cluster>& clusters, const ScoreParams& params,
                size_t limit, std::map<Combo, double>* out) {
  const size_t none = std::numeric_limits<size_t>::max();
  std::vector<size_t> slot_of(query.paths().size(), none);
  std::vector<const Cluster*> active;
  double fixed = 0;
  for (const Cluster& c : clusters) {
    if (!c.empty()) {
      slot_of[c.query_path_index] = active.size();
      active.push_back(&c);
      continue;
    }
    const Path& q = query.paths()[c.query_path_index];
    fixed += params.a() * static_cast<double>(q.node_labels.size()) +
             params.c() * static_cast<double>(q.edge_labels.size());
  }
  // Per IG edge between non-empty clusters, |χ| of every candidate pair.
  struct Link {
    size_t x, y;  // Active slots, x < y.
    size_t chi_q;
    std::vector<size_t> chi;  // chi[i * |y| + j].
  };
  std::vector<Link> links;
  for (const IntersectionQueryGraph::SharedEdge& edge : ig.edges()) {
    size_t x = slot_of[edge.qi];
    size_t y = slot_of[edge.qj];
    if (x == none || y == none) {
      fixed += PsiCost(edge.shared.size(), 0, params);
      continue;
    }
    if (x > y) std::swap(x, y);
    Link link{x, y, edge.shared.size(), {}};
    for (const ScoredPath& a : active[x]->paths) {
      for (const ScoredPath& b : active[y]->paths) {
        link.chi.push_back(ChiSize(*a.path, *b.path));
      }
    }
    links.push_back(std::move(link));
  }

  out->clear();
  std::vector<size_t> pick(active.size());
  auto chi = [&](const Link& link) {
    return link.chi[pick[link.x] * active[link.y]->size() + pick[link.y]];
  };
  auto descend = [&](auto&& self, size_t depth) -> void {
    if (out->size() > limit) return;
    if (depth == active.size()) {
      Combo combo;
      double score = fixed;
      for (size_t s = 0; s < active.size(); ++s) {
        const ScoredPath& sp = active[s]->paths[pick[s]];
        combo.emplace_back(active[s]->query_path_index, sp.id);
        score += sp.lambda();
      }
      for (const Link& link : links) {
        score += PsiCost(link.chi_q, chi(link), params);
      }
      out->emplace(std::move(combo), score);
      return;
    }
    for (pick[depth] = 0; pick[depth] < active[depth]->size(); ++pick[depth]) {
      bool connected = true;
      for (const Link& link : links) {
        if (link.y == depth && chi(link) == 0) connected = false;
      }
      if (connected) self(self, depth + 1);
    }
  };
  if (!active.empty()) descend(descend, 0);
  return out->size() <= limit;
}

Combo ComboOf(const Answer& answer) {
  Combo combo;
  for (size_t i = 0; i < answer.parts.size(); ++i) {
    combo.emplace_back(answer.query_path_index[i], answer.parts[i].id);
  }
  return combo;
}

// At most `cap` candidates of each cluster, in λ order. Keeping each
// cluster's best by λ (ClusteringOptions::max_candidates_per_cluster),
// at the largest cap whose cross product is under 10^6, leaves LUBM-1
// Q6 and Q10–Q12 without a connected combination, which would check
// nothing. So clusters are visited from the smallest, and
// two thirds of each cluster's places go to supported candidates: those
// that, along every intersection-graph edge to a cluster visited
// before, share a node with a kept candidate there. The rest go to the
// best remaining candidates by λ, supported or not, so the search meets
// dead ends.
std::vector<Cluster> Supported(const std::vector<Cluster>& full, size_t cap,
                               const IntersectionQueryGraph& ig) {
  std::vector<size_t> by_size(full.size());
  for (size_t c = 0; c < full.size(); ++c) by_size[c] = c;
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t x, size_t y) {
    return full[x].size() < full[y].size();
  });
  std::vector<Cluster> kept(full.size());
  std::vector<size_t> visited;
  for (size_t c : by_size) {
    kept[c].query_path_index = full[c].query_path_index;
    std::vector<uint8_t> chosen(full[c].size(), 0);
    size_t count = 0;
    for (size_t i = 0; i < full[c].size() && count < cap - cap / 3; ++i) {
      const Path& path = *full[c].paths[i].path;
      bool supported = true;
      for (size_t v : visited) {
        if (ig.ChiQ(full[c].query_path_index, full[v].query_path_index) == 0) {
          continue;
        }
        bool shares = false;
        for (const ScoredPath& other : kept[v].paths) {
          shares = shares || ChiSize(path, *other.path) > 0;
        }
        supported = supported && shares;
      }
      if (supported) {
        chosen[i] = 1;
        ++count;
      }
    }
    for (size_t i = 0; i < full[c].size() && count < cap; ++i) {
      if (chosen[i] == 0) {
        chosen[i] = 1;
        ++count;
      }
    }
    for (size_t i = 0; i < full[c].size(); ++i) {
      if (chosen[i] != 0) kept[c].paths.push_back(full[c].paths[i]);
    }
    visited.push_back(c);
  }
  return kept;
}

// What the kernel ran under the oracle's checks, over all inputs.
struct Coverage {
  size_t retried = 0;   // Inputs with a finishing retry budget.
  uint64_t reused = 0;  // Prefix-slot reuses at k = 0.
};

// One query over one graph's index, its clusters capped to keep the
// reference small.
class OracleInput {
 public:
  explicit OracleInput(QueryGraph query)
      : query_(std::move(query)), ig_(query_) {}

  // Clusters the query, then keeps at most `cap` candidates per cluster
  // (Supported), at the largest cap whose reference is small but not
  // empty.
  void Prepare(const PathIndex& index, const Thesaurus& thesaurus) {
    auto full = BuildClusters(query_, index, &thesaurus, params_,
                              ClusteringOptions());
    ASSERT_TRUE(full.ok()) << full.status();
    for (size_t cap : kCaps) {
      std::vector<Cluster> clusters = Supported(*full, cap, ig_);
      double product = 1;
      for (const Cluster& c : clusters) {
        if (!c.empty()) product *= static_cast<double>(c.size());
      }
      if (product > kMaxProduct && cap != 1) continue;
      const bool small =
          BruteForce(query_, ig_, clusters, params_, kMaxAnswers, &reference_);
      clusters_ = std::move(clusters);
      if (small && !reference_.empty()) break;
      ASSERT_TRUE(small || cap != 1) << "no cap keeps the reference small";
    }
  }

  // Runs every check against the reference at 1 thread and on `pool`.
  void Check(const std::string& name, ThreadPool* pool, Coverage* coverage) {
    ThreadPool* const pools[] = {nullptr, pool};
    // k = 0 and a budget that finishes: exactly the reference set.
    ForestSearchOptions all;
    all.k = 0;
    all.max_expansions = kUnbounded;
    uint64_t exhaustive = 0;
    for (ThreadPool* p : pools) {
      ForestSearchStats stats;
      ExpectReferenceSet(name + " k=0", Search(all, p, &stats), stats);
      exhaustive = stats.expansions;
      if (p == nullptr) coverage->reused += stats.intersections_reused;
    }
    // A budget that truncates some subtree in its first round but lets
    // the retry rounds finish: the attempt's waste shows as expansions
    // beyond the exhaustive count. The arenas then run several subtrees
    // and rounds each.
    for (uint64_t sixteenths : {18, 20, 22, 24, 28, 32, 40, 48}) {
      ForestSearchOptions retry = all;
      retry.max_expansions =
          static_cast<size_t>(exhaustive * sixteenths / 16);
      ForestSearchStats stats;
      std::vector<Answer> answers = Search(retry, nullptr, &stats);
      if (stats.truncated || stats.expansions <= exhaustive) continue;
      ++coverage->retried;
      ExpectReferenceSet(name + " retry", answers, stats);
      ForestSearchStats parallel;
      ExpectReferenceSet(name + " retry 4 threads",
                         Search(retry, pool, &parallel), parallel);
      EXPECT_EQ(parallel.expansions, stats.expansions) << name;
      break;
    }
    // k = 1 and 5, pruning on and off: the k smallest reference scores.
    std::vector<double> best;
    for (const auto& [combo, score] : reference_) best.push_back(score);
    std::sort(best.begin(), best.end());
    for (size_t k : {1, 5}) {
      for (bool prune : {true, false}) {
        ForestSearchOptions top = all;
        top.k = k;
        params_.prune_search = prune;
        for (ThreadPool* p : pools) {
          ForestSearchStats stats;
          std::vector<Answer> answers = Search(top, p, &stats);
          const std::string where = name + " k=" + std::to_string(k) +
                                    (prune ? " pruned" : " exhaustive") +
                                    (p != nullptr ? " 4 threads" : "");
          EXPECT_FALSE(stats.truncated) << where;
          ASSERT_EQ(answers.size(), std::min(k, best.size())) << where;
          for (size_t i = 0; i < answers.size(); ++i) {
            EXPECT_NEAR(answers[i].score, best[i], 1e-9) << where;
            auto it = reference_.find(ComboOf(answers[i]));
            ASSERT_NE(it, reference_.end()) << where;
            EXPECT_NEAR(answers[i].score, it->second, 1e-9) << where;
          }
        }
      }
    }
    params_.prune_search = true;
  }

  size_t reference_size() const { return reference_.size(); }

 private:
  std::vector<Answer> Search(const ForestSearchOptions& options,
                             ThreadPool* pool, ForestSearchStats* stats) {
    auto answers = ForestSearch(query_, ig_, clusters_, params_, options,
                                pool, nullptr, stats);
    EXPECT_TRUE(answers.ok()) << answers.status();
    return answers.ok() ? std::move(*answers) : std::vector<Answer>{};
  }

  void ExpectReferenceSet(const std::string& where,
                          const std::vector<Answer>& answers,
                          const ForestSearchStats& stats) {
    EXPECT_FALSE(stats.truncated) << where;
    ASSERT_EQ(answers.size(), reference_.size()) << where;
    std::set<Combo> seen;
    for (const Answer& answer : answers) {
      Combo combo = ComboOf(answer);
      auto it = reference_.find(combo);
      ASSERT_NE(it, reference_.end()) << where << ": not a connected combo";
      EXPECT_NEAR(answer.score, it->second, 1e-9) << where;
      EXPECT_TRUE(seen.insert(std::move(combo)).second)
          << where << ": combination returned twice";
    }
  }

  QueryGraph query_;
  IntersectionQueryGraph ig_;
  ScoreParams params_;
  std::vector<Cluster> clusters_;
  std::map<Combo, double> reference_;
};

// A dataset's graph, index and thesaurus.
struct OracleEnv {
  DataGraph graph;
  PathIndex index;
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();

  explicit OracleEnv(std::vector<Triple> triples)
      : graph(DataGraph::FromTriples(std::move(triples))) {
    Status s = index.Build(graph, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  void CheckSparql(const BenchmarkQuery& q, ThreadPool* pool,
                   Coverage* coverage) {
    auto parsed = ParseSparql(q.sparql);
    ASSERT_TRUE(parsed.ok()) << q.name << ": " << parsed.status();
    OracleInput input(parsed->ToQueryGraph(graph.shared_dict()));
    input.Prepare(index, thesaurus);
    EXPECT_GT(input.reference_size(), 0u) << q.name;
    input.Check(q.name, pool, coverage);
  }
};

TEST(ForestSearchOracleTest, LubmMatchesBruteForce) {
  ThreadPool pool(3);  // With the calling thread: 4 threads.
  LubmConfig config;
  config.universities = 1;
  OracleEnv env(GenerateLubm(config));
  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  Coverage coverage;
  for (size_t i = 5; i < 12; ++i) env.CheckSparql(queries[i], &pool, &coverage);
  EXPECT_GT(coverage.retried, 0u);
  EXPECT_GT(coverage.reused, 0u);
}

TEST(ForestSearchOracleTest, BerlinMatchesBruteForce) {
  ThreadPool pool(3);
  BerlinConfig config;
  config.products = 100;
  OracleEnv env(GenerateBerlin(config));
  Coverage coverage;
  for (const BenchmarkQuery& q : MakeBerlinQueries()) {
    env.CheckSparql(q, &pool, &coverage);
  }
}

// A query sampled from the data graph around a hub, the way
// CrossSystemTest samples one along a path: a walk follows random edges
// until a source, which stays a constant, and every node it passes
// becomes a variable. Three walks run back from the hub, each from a
// different in-edge, and two run forward to sinks, which become
// variables too. The query's six paths, one per (walk back, walk
// forward) pair, share the hub's variable; paths with different walks
// back share only variables, so their candidates connect only where
// their data paths meet. Later join positions complete two back edges
// or more.
std::vector<Triple> SampledHubQuery(const DataGraph& graph, uint64_t seed) {
  Random rng(seed * 31 + 11);
  std::vector<NodeId> hubs;
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    if (graph.in_degree(n) >= 3 && graph.out_degree(n) >= 1) hubs.push_back(n);
  }
  if (hubs.empty()) return {};
  const NodeId hub = hubs[rng.Uniform(hubs.size())];
  std::vector<Triple> patterns;
  size_t fresh = 0;
  auto var = [&fresh] { return Term::Variable("v" + std::to_string(fresh++)); };
  const Term hub_var = Term::Variable("hub");
  std::vector<EdgeId> firsts = graph.in_edges(hub);
  for (size_t w = 0; w < 3; ++w) {
    const size_t at = rng.Uniform(firsts.size());
    EdgeId e = firsts[at];
    firsts.erase(firsts.begin() + static_cast<std::ptrdiff_t>(at));
    Term to = hub_var;
    while (true) {
      const NodeId from = graph.edge(e).from;
      const bool source = graph.in_degree(from) == 0;
      const Term from_term = source ? graph.node_term(from) : var();
      patterns.push_back({from_term, graph.edge_term(e), to});
      if (source) break;
      to = from_term;
      const std::vector<EdgeId>& in = graph.in_edges(from);
      e = in[rng.Uniform(in.size())];
    }
  }
  for (size_t w = 0; w < 2; ++w) {
    EdgeId e = graph.out_edges(hub)[rng.Uniform(graph.out_degree(hub))];
    Term from = hub_var;
    while (true) {
      const NodeId to = graph.edge(e).to;
      const Term to_term = var();
      patterns.push_back({from, graph.edge_term(e), to_term});
      if (graph.out_degree(to) == 0) break;
      from = to_term;
      const std::vector<EdgeId>& out = graph.out_edges(to);
      e = out[rng.Uniform(out.size())];
    }
  }
  return patterns;
}

TEST(ForestSearchOracleTest, ScaleFreeHubQueriesMatchBruteForce) {
  ThreadPool pool(3);
  std::vector<uint64_t> seeds = {1, 2, 3, 4};
  if (const char* env = std::getenv("SAMA_TORTURE_SEED")) {
    seeds = {std::stoull(env)};
  }
  Coverage coverage;
  for (uint64_t seed : seeds) {
    ScaleFreeProfile profile;
    profile.num_entities = 150;
    profile.link_labels = {"linksTo", "cites"};
    profile.seed = seed;
    OracleEnv env(GenerateScaleFree(profile));
    for (uint64_t q = 0; q < 3; ++q) {
      std::vector<Triple> patterns = SampledHubQuery(env.graph, seed * 8 + q);
      ASSERT_FALSE(patterns.empty()) << "seed " << seed;
      OracleInput input(
          QueryGraph::FromPatterns(patterns, env.graph.shared_dict()));
      input.Prepare(env.index, env.thesaurus);
      const std::string name =
          "seed " + std::to_string(seed) + " query " + std::to_string(q);
      EXPECT_GT(input.reference_size(), 0u) << name;
      input.Check(name, &pool, &coverage);
    }
  }
  EXPECT_GT(coverage.reused, 0u);
}

// A graph, its own index and an engine at `num_threads` threads.
struct ThreadedEngine {
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  std::unique_ptr<SamaEngine> engine;

  ThreadedEngine(std::vector<Triple> triples, size_t num_threads) {
    graph = std::make_unique<DataGraph>(
        DataGraph::FromTriples(std::move(triples)));
    index = std::make_unique<PathIndex>();
    Status s = index->Build(*graph, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
    EngineOptions options;
    options.num_threads = num_threads;
    engine = std::make_unique<SamaEngine>(graph.get(), index.get(),
                                          &thesaurus, options);
  }
};

// Heavy's queries (LUBM-1 Q6–Q12, k = 5, the 50,000-expansion budget,
// SELECT dedup): the prefix-slot counters are a function of the work, so
// 1 and 4 threads count the same, and each query serves more slot
// lookups from a valid slot than it rebuilds.
TEST(ForestSearchMemoTest, CountersMatchAcrossThreadsAndReuseDominates) {
  LubmConfig config;
  config.universities = 1;
  ThreadedEngine serial(GenerateLubm(config), 1);
  ThreadedEngine parallel(GenerateLubm(config), 4);
  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  for (size_t i = 5; i < 12; ++i) {
    auto parsed = ParseSparql(queries[i].sparql);
    ASSERT_TRUE(parsed.ok()) << queries[i].name;
    QueryStats one, four;
    ASSERT_TRUE(serial.engine->ExecuteSparql(*parsed, 5, &one).ok());
    ASSERT_TRUE(parallel.engine->ExecuteSparql(*parsed, 5, &four).ok());
    EXPECT_EQ(one.search_expansions, four.search_expansions)
        << queries[i].name;
    EXPECT_EQ(one.search_intersections, four.search_intersections)
        << queries[i].name;
    EXPECT_EQ(one.search_intersections_reused,
              four.search_intersections_reused)
        << queries[i].name;
    EXPECT_GT(one.search_intersections, 0u) << queries[i].name;
    EXPECT_GT(one.search_intersections_reused, one.search_intersections)
        << queries[i].name;
  }
}

}  // namespace
}  // namespace sama
