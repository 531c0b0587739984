// Ablations for the design choices DESIGN.md calls out:
//   1. Path-store compression (varint vs fixed32): space and read time
//      — the §7 "compression mechanisms" future-work item.
//   2. Thesaurus on/off: answers found on synonym-relaxed queries.
//   3. require_connected on/off: answer quality (consistent fraction)
//      vs count.
//   4. Buffer-pool size sweep: cold-scan time as the cache shrinks.
//   5. Early-exit alignment on/off: clustering time with a top-n cap.
//   6. Incremental AddTriple vs full index rebuild (§7's "speed-up the
//      update of the index").
//   7. Greedy linear alignment vs optimal DP alignment: clustering time
//      and best-λ quality across the 12-query workload.

#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "datasets/queries.h"
#include "query/sparql.h"
#include "core/clustering.h"
#include "storage/path_store.h"

namespace {

using sama::bench::LubmEnv;

void CompressionAblation(const sama::DataGraph& graph) {
  std::printf("1) Path-store compression (same LUBM paths)\n");
  std::vector<sama::Path> paths = sama::AllPaths(graph);
  for (bool compress : {false, true}) {
    std::string dir = (std::filesystem::temp_directory_path() /
                       (compress ? "sama_abl_varint" : "sama_abl_fixed"))
                          .string();
    std::filesystem::create_directories(dir);
    sama::PathStore store;
    sama::PathStore::Options options;
    options.path = dir + "/paths.dat";
    options.compress = compress;
    if (!store.Open(options).ok()) return;
    sama::WallTimer write_timer;
    for (const sama::Path& p : paths) {
      if (!store.Put(p).ok()) return;
    }
    (void)store.Flush();
    double write_ms = write_timer.ElapsedMillis();
    (void)store.DropCaches();
    sama::WallTimer read_timer;
    sama::Path loaded;
    for (sama::PathId id = 0; id < store.path_count(); ++id) {
      (void)store.Get(id, &loaded);
    }
    double read_ms = read_timer.ElapsedMillis();
    std::printf("   %-8s %8s on disk   write %7.2f ms   scan %7.2f ms\n",
                compress ? "varint" : "fixed32",
                sama::HumanBytes(store.size_bytes()).c_str(), write_ms,
                read_ms);
    (void)store.Close();
    std::filesystem::remove_all(dir);
  }
  std::printf("\n");
}

void ThesaurusAblation(LubmEnv* env) {
  std::printf("2) Thesaurus on/off (synonym query Q11)\n");
  auto queries = sama::MakeLubmQueries();
  auto parsed = sama::ParseSparql(queries[10].sparql);  // Q11.
  if (!parsed.ok()) return;
  sama::QueryGraph qg = parsed->ToQueryGraph(env->graph->shared_dict());
  for (bool with : {true, false}) {
    sama::SamaEngine engine(env->graph.get(), env->index.get(),
                            with ? &env->thesaurus : nullptr);
    auto answers = engine.Execute(qg, 50);
    size_t exactish = 0;
    if (answers.ok()) {
      for (const sama::Answer& a : *answers) {
        if (a.lambda_total == 0.0) ++exactish;
      }
    }
    std::printf("   thesaurus %-3s  %3zu answers (%zu with lambda 0)\n",
                with ? "on" : "off",
                answers.ok() ? answers->size() : 0, exactish);
  }
  std::printf("\n");
}

void ConnectivityAblation(LubmEnv* env) {
  std::printf("3) require_connected on/off (Q9)\n");
  auto queries = sama::MakeLubmQueries();
  auto parsed = sama::ParseSparql(queries[8].sparql);  // Q9.
  if (!parsed.ok()) return;
  sama::QueryGraph qg = parsed->ToQueryGraph(env->graph->shared_dict());
  for (bool connected : {true, false}) {
    sama::EngineOptions options;
    options.search.require_connected = connected;
    sama::SamaEngine engine(env->graph.get(), env->index.get(),
                            &env->thesaurus, options);
    auto answers = engine.Execute(qg, 100);
    size_t consistent = 0;
    if (answers.ok()) {
      for (const sama::Answer& a : *answers) {
        if (a.consistent) ++consistent;
      }
    }
    std::printf(
        "   require_connected %-3s  %3zu answers, %3zu consistent\n",
        connected ? "on" : "off", answers.ok() ? answers->size() : 0,
        consistent);
  }
  std::printf("\n");
}

void BufferPoolAblation() {
  std::printf(
      "4) Buffer-pool size sweep (random-order reads of a disk index)\n");
  sama::LubmConfig config;
  config.universities = 8;
  sama::DataGraph graph =
      sama::DataGraph::FromTriples(sama::GenerateLubm(config));
  for (size_t pages : {1, 2, 8, 64, 1024}) {
    std::string dir = (std::filesystem::temp_directory_path() /
                       ("sama_abl_bp" + std::to_string(pages)))
                          .string();
    std::filesystem::create_directories(dir);
    sama::PathIndexOptions options;
    options.dir = dir;
    options.buffer_pool_pages = pages;
    sama::PathIndex index;
    if (!index.Build(graph, options).ok()) return;
    (void)index.DropCaches();
    // Random-order access defeats sequential locality, so the cache
    // size is what determines the hit rate.
    sama::Random rng(99);
    std::vector<sama::PathId> ids(index.path_count());
    for (sama::PathId i = 0; i < ids.size(); ++i) ids[i] = i;
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.Uniform(i)]);
    }
    sama::WallTimer timer;
    std::shared_ptr<const sama::Path> p;
    for (int round = 0; round < 3; ++round) {
      for (sama::PathId id : ids) (void)index.GetPath(id, &p);
    }
    double ms = timer.ElapsedMillis();
    sama::BufferPool::Stats stats = index.cache_stats();
    std::printf("   %5zu pages: scan %7.2f ms, hit rate %5.1f%%\n", pages,
                ms, 100.0 * stats.HitRate());
    std::filesystem::remove_all(dir);
  }
}

}  // namespace

void EarlyExitAblation(LubmEnv* env) {
  std::printf("5) Early-exit alignment (clustering with top-10 cap, Q10)\n");
  auto queries = sama::MakeLubmQueries();
  auto parsed = sama::ParseSparql(queries[9].sparql);  // Q10.
  if (!parsed.ok()) return;
  sama::QueryGraph qg = parsed->ToQueryGraph(env->graph->shared_dict());
  for (bool early : {false, true}) {
    sama::ClusteringOptions options;
    options.max_candidates_per_cluster = 10;
    options.early_exit_alignment = early;
    sama::WallTimer timer;
    size_t kept = 0;
    for (int round = 0; round < 50; ++round) {
      auto clusters = sama::BuildClusters(qg, *env->index,
                                          &env->thesaurus,
                                          sama::ScoreParams(), options);
      if (!clusters.ok()) return;
      kept = 0;
      for (const sama::Cluster& c : *clusters) kept += c.size();
    }
    std::printf("   early_exit %-3s  %7.2f ms / 50 rounds (%zu kept)\n",
                early ? "on" : "off", timer.ElapsedMillis(), kept);
  }
}

void IncrementalUpdateAblation() {
  std::printf(
      "6) Incremental AddTriple vs full rebuild (100 new triples)\n");
  sama::LubmConfig config;
  config.universities = 2;
  std::vector<sama::Triple> base = sama::GenerateLubm(config);
  auto extra_triple = [](int i) {
    return sama::Triple{
        sama::Term::Iri("http://lubm.example.org/data/NewStudent" +
                        std::to_string(i)),
        sama::Term::Iri("http://lubm.example.org/univ-bench#memberOf"),
        sama::Term::Iri(
            "http://lubm.example.org/data/Department0_Univ0")};
  };

  // Incremental: one AddTriple per new triple.
  {
    sama::DataGraph graph = sama::DataGraph::FromTriples(base);
    sama::PathIndex index;
    sama::PathIndexOptions options;
    options.build_hypergraph = false;
    if (!index.Build(graph, options).ok()) return;
    sama::WallTimer timer;
    for (int i = 0; i < 100; ++i) {
      if (!index.AddTriple(&graph, extra_triple(i)).ok()) return;
    }
    std::printf("   incremental: %8.2f ms  (%llu live paths)\n",
                timer.ElapsedMillis(),
                static_cast<unsigned long long>(index.live_path_count()));
  }
  // Rebuild: one full Build per new triple (the naive alternative);
  // measured for 10 rebuilds and scaled, to keep the bench short.
  {
    std::vector<sama::Triple> triples = base;
    sama::WallTimer timer;
    for (int i = 0; i < 10; ++i) {
      triples.push_back(extra_triple(i));
      sama::DataGraph graph = sama::DataGraph::FromTriples(triples);
      sama::PathIndex index;
      sama::PathIndexOptions options;
      options.build_hypergraph = false;
      if (!index.Build(graph, options).ok()) return;
    }
    std::printf("   rebuild    : %8.2f ms  (x10 extrapolated from 10 "
                "rebuilds)\n",
                timer.ElapsedMillis() * 10.0);
  }
}

void AlignmentModeAblation(LubmEnv* env) {
  std::printf(
      "7) Greedy O(|p|+|q|) vs optimal O(|p|*|q|) alignment "
      "(12-query workload)\n");
  for (sama::AlignmentMode mode :
       {sama::AlignmentMode::kGreedyLinear,
        sama::AlignmentMode::kOptimalDp}) {
    sama::ScoreParams params;
    params.alignment_mode = mode;
    sama::WallTimer timer;
    double lambda_sum = 0;
    size_t candidates = 0;
    for (const sama::BenchmarkQuery& bq : sama::MakeLubmQueries()) {
      auto parsed = sama::ParseSparql(bq.sparql);
      if (!parsed.ok()) continue;
      sama::QueryGraph qg =
          parsed->ToQueryGraph(env->graph->shared_dict());
      auto clusters = sama::BuildClusters(qg, *env->index,
                                          &env->thesaurus, params, {});
      if (!clusters.ok()) continue;
      for (const sama::Cluster& c : *clusters) {
        candidates += c.size();
        if (!c.empty()) lambda_sum += c.paths[0].lambda();
      }
    }
    std::printf(
        "   %-7s %8.2f ms, %zu candidates aligned, sum of best "
        "lambdas %.2f\n",
        mode == sama::AlignmentMode::kGreedyLinear ? "greedy" : "optimal",
        timer.ElapsedMillis(), candidates, lambda_sum);
  }
  std::printf(
      "   (equal best-lambda sums mean the greedy scan found the "
      "optimum here)\n");
}

int main() {
  std::printf("Ablation study\n\n");
  LubmEnv env = sama::bench::MakeLubmEnv(
      static_cast<size_t>(sama::bench::EnvScale()) + 1,
      /*on_disk=*/false, "ablation");
  CompressionAblation(*env.graph);
  ThesaurusAblation(&env);
  ConnectivityAblation(&env);
  BufferPoolAblation();
  EarlyExitAblation(&env);
  IncrementalUpdateAblation();
  AlignmentModeAblation(&env);
  return 0;
}
