// Figure 6 — average response time of the 12 benchmark queries on the
// LUBM-like dataset for Sama, Sapper, Bounded and Dogma, cold-cache
// (6a) and warm-cache (6b). Each query computes its top-10 answers and
// is averaged over several runs, as in §6.2.
//
// Expected shape (paper): Sama fastest on most queries; Bounded beats
// Dogma; Sapper is the least efficient. Cold-cache times exceed
// warm-cache times for the disk-backed Sama index.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bounded.h"
#include "baselines/dogma.h"
#include "baselines/sapper.h"
#include "bench_util.h"
#include "common/timer.h"
#include "datasets/queries.h"
#include "query/sparql.h"

namespace {

constexpr size_t kTopK = 10;
constexpr int kRuns = 5;

using sama::bench::LubmEnv;

// Per-query measurements feeding the table, the per-phase breakdown
// and the --json artifact, which tools/check_bench_regression.py gates
// against benchmarks/BENCH_pr5_baseline.json.
struct QueryRow {
  std::string name;
  double cold_ms = 0;
  double warm_ms = 0;           // Pruning + caches on (the hot path).
  double warm_noprune_ms = 0;   // Exhaustive search ablation.
  double clustering_ms = 0;     // Warm, pruning on.
  double search_ms = 0;
  double noprune_search_ms = 0;
  double pruning_ratio = 0;
  double alignment_hit_rate = 0;
  double record_hit_rate = 0;
  double lookup_hit_rate = 0;
  uint64_t search_expansions = 0;          // Pruned engine, warm.
  uint64_t noprune_search_expansions = 0;  // Exhaustive ablation.
  bool search_truncated = false;
  bool noprune_search_truncated = false;
};

// Averaged warm-path phase timings; the hit rates and pruning ratio
// come from the last run (they are deterministic per query once warm).
void AveragePhases(sama::SamaEngine& engine, const sama::QueryGraph& qg,
                   int runs, double* total_ms, double* clustering_ms,
                   double* search_ms, sama::QueryStats* last) {
  *total_ms = *clustering_ms = *search_ms = 0;
  for (int r = 0; r < runs; ++r) {
    (void)engine.Execute(qg, kTopK, last);
    *total_ms += last->total_millis;
    *clustering_ms += last->clustering_millis;
    *search_ms += last->search_millis;
  }
  *total_ms /= runs;
  *clustering_ms /= runs;
  *search_ms /= runs;
}

void WriteJson(const std::string& path, size_t threads, size_t triples,
               size_t max_expansions, const std::vector<QueryRow>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  double cold_mean = 0, warm_mean = 0, noprune_mean = 0;
  // Exact subset: queries whose optimized search was NOT cut by the
  // anytime budget, i.e. the ranked answers are provably exact. On
  // these the exhaustive ablation (same budget) either completed too —
  // identical answers, enforced at runtime — or was truncated, making
  // the measured ratio a LOWER bound on the true speedup.
  double exact_warm_sum = 0, exact_noprune_sum = 0;
  size_t exact_queries = 0;
  for (const QueryRow& r : rows) {
    cold_mean += r.cold_ms;
    warm_mean += r.warm_ms;
    noprune_mean += r.warm_noprune_ms;
    if (!r.search_truncated) {
      exact_warm_sum += r.warm_ms;
      exact_noprune_sum += r.warm_noprune_ms;
      ++exact_queries;
    }
  }
  if (!rows.empty()) {
    cold_mean /= rows.size();
    warm_mean /= rows.size();
    noprune_mean /= rows.size();
  }
  std::fprintf(f, "{\n  \"bench\": \"fig6\",\n  \"threads\": %zu,\n"
               "  \"triples\": %zu,\n  \"top_k\": %zu,\n  \"runs\": %d,\n"
               "  \"max_expansions\": %zu,\n",
               threads, triples, kTopK, kRuns, max_expansions);
  std::fprintf(f, "  \"queries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const QueryRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"cold_ms\": %.4f, \"warm_ms\": %.4f, "
        "\"warm_noprune_ms\": %.4f, \"clustering_ms\": %.4f, "
        "\"search_ms\": %.4f, \"noprune_search_ms\": %.4f, "
        "\"pruning_ratio\": %.4f, \"alignment_memo_hit_rate\": %.4f, "
        "\"record_cache_hit_rate\": %.4f, \"lookup_cache_hit_rate\": %.4f, "
        "\"search_expansions\": %llu, \"noprune_search_expansions\": %llu, "
        "\"search_truncated\": %s, \"noprune_search_truncated\": %s}%s\n",
        r.name.c_str(), r.cold_ms, r.warm_ms, r.warm_noprune_ms,
        r.clustering_ms, r.search_ms, r.noprune_search_ms, r.pruning_ratio,
        r.alignment_hit_rate, r.record_hit_rate, r.lookup_hit_rate,
        static_cast<unsigned long long>(r.search_expansions),
        static_cast<unsigned long long>(r.noprune_search_expansions),
        r.search_truncated ? "true" : "false",
        r.noprune_search_truncated ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // warm_speedup is the algorithmic win this PR claims: the exhaustive
  // warm path (no score bound, no query-side caches) over the optimized
  // warm path, both single-threaded and under the same anytime budget,
  // summed over the exact (non-truncated) queries. warm_speedup_all
  // includes the anytime queries, where both engines burn the same
  // budget and roughly tie. cold_warm_ratio tracks disk/page + memo
  // warm-up.
  std::fprintf(f,
               "  \"summary\": {\"cold_mean_ms\": %.4f, \"warm_mean_ms\": "
               "%.4f, \"warm_noprune_mean_ms\": %.4f, \"warm_speedup\": "
               "%.2f, \"warm_speedup_all\": %.2f, \"exact_queries\": %zu, "
               "\"cold_warm_ratio\": %.2f}\n}\n",
               cold_mean, warm_mean, noprune_mean,
               sama::bench::FiniteOr(
                   exact_warm_sum > 0 ? exact_noprune_sum / exact_warm_sum
                                      : 0.0),
               sama::bench::FiniteOr(
                   warm_mean > 0 ? noprune_mean / warm_mean : 0.0),
               exact_queries,
               sama::bench::FiniteOr(
                   warm_mean > 0 ? cold_mean / warm_mean : 0.0));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

double AverageMillis(const std::function<void()>& body, int runs) {
  double total = 0;
  for (int r = 0; r < runs; ++r) {
    sama::WallTimer timer;
    body();
    total += timer.ElapsedMillis();
  }
  return total / runs;
}

// Answers must not depend on the thread count: collapse each answer to
// its (score, binding) signature for comparison against the serial run.
std::vector<std::pair<double, std::string>> AnswerSignature(
    const std::vector<sama::Answer>& answers) {
  std::vector<std::pair<double, std::string>> sig;
  sig.reserve(answers.size());
  for (const sama::Answer& a : answers) {
    std::string parts;
    for (const sama::ScoredPath& sp : a.parts) {
      parts += std::to_string(sp.id);
      parts += ',';
    }
    sig.emplace_back(a.score, parts);
  }
  return sig;
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 1;
  // Default anytime budget: high enough that the score-bounded search
  // completes Q1–Q9 (Q10–Q12 are genuinely anytime: their pruned
  // search needs >10M expansions). The exhaustive ablation gets the
  // same budget, so on queries it cannot finish the comparison is
  // equal-budget, equal-or-worse-quality — never unfair to the
  // ablation, and the reported speedup is a lower bound on the true
  // algorithmic win.
  size_t max_expansions = 500000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<size_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strncmp(argv[i], "--max-expansions=", 17) == 0) {
      max_expansions =
          static_cast<size_t>(std::strtoul(argv[i] + 17, nullptr, 10));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig6_query_time [--threads=N] "
                   "[--max-expansions=N] [--json=FILE]  "
                   "(N=0 means all hardware threads)\n");
      return 1;
    }
  }
  size_t universities =
      static_cast<size_t>(2 * sama::bench::EnvScale()) + 1;
  LubmEnv env =
      sama::bench::MakeLubmEnv(universities, /*on_disk=*/true, "fig6");
  // Interactive top-k configuration: a bounded anytime search budget
  // (the returned 10 answers are the greedily best; §5 likewise
  // generates the top-k heuristically).
  sama::EngineOptions engine_options;
  engine_options.search.max_expansions = max_expansions;
  engine_options.num_threads = threads;
  sama::SamaEngine engine(env.graph.get(), env.index.get(),
                          &env.thesaurus, engine_options);
  // The exhaustive path: no score bound, no query-side caches — every
  // alignment, lookup and record read recomputed. The answers are
  // byte-identical to the optimized engine's; the gap is this PR's
  // algorithmic win (summary.optimization_speedup). It gets its OWN
  // index (in memory — strictly in its favor) because
  // ConfigureQueryCache installs the index-side caches per index, and
  // this engine must run without them.
  sama::PathIndex noprune_index;
  if (!noprune_index.Build(*env.graph, sama::PathIndexOptions()).ok()) {
    std::fprintf(stderr, "exhaustive-path index build failed\n");
    return 1;
  }
  sama::EngineOptions noprune_options = engine_options;
  noprune_options.params.prune_search = false;
  noprune_options.cache.enabled = false;
  sama::SamaEngine noprune_engine(env.graph.get(), &noprune_index,
                                  &env.thesaurus, noprune_options);
  // Reference serial engine for the identical-answers check.
  sama::EngineOptions serial_options = engine_options;
  serial_options.num_threads = 1;
  sama::SamaEngine serial_engine(env.graph.get(), env.index.get(),
                                 &env.thesaurus, serial_options);
  const bool check_determinism = threads != 1;
  std::printf("Figure 6: avg response time (ms) on LUBM (%zu triples), "
              "top-%zu answers, %d runs, %zu thread(s)\n\n",
              env.graph->edge_count(), kTopK, kRuns,
              threads == 0 ? sama::ThreadPool::HardwareThreads() : threads);

  sama::MatcherOptions limits;
  limits.max_steps = 500000;
  limits.max_matches = 10000;
  sama::SapperMatcher::Options sapper_options;
  sapper_options.limits = limits;
  sama::SapperMatcher sapper(env.graph.get(), sapper_options);
  sama::BoundedMatcher::Options bounded_options;
  bounded_options.limits = limits;
  sama::BoundedMatcher bounded(env.graph.get(), bounded_options);
  sama::DogmaMatcher::Options dogma_options;
  dogma_options.limits = limits;
  sama::DogmaMatcher dogma(env.graph.get(), dogma_options);

  std::vector<QueryRow> rows;
  for (bool cold : {true, false}) {
    size_t row_index = 0;
    std::printf("--- %s-cache ---\n", cold ? "cold" : "warm");
    std::printf("%-5s %10s %10s %10s %10s\n", "Q", "Sama", "Sapper",
                "Bounded", "Dogma");
    for (const sama::BenchmarkQuery& bq : sama::MakeLubmQueries()) {
      auto parsed = sama::ParseSparql(bq.sparql);
      if (!parsed.ok()) continue;
      sama::QueryGraph qg =
          parsed->ToQueryGraph(env.graph->shared_dict());
      if (cold) {
        rows.emplace_back();
        rows.back().name = bq.name;
      }
      QueryRow& row = rows[row_index++];

      // Warm the cache once for the warm condition.
      if (!cold) (void)engine.Execute(qg, kTopK);

      if (check_determinism && !cold) {
        auto parallel_answers = engine.Execute(qg, kTopK);
        auto serial_answers = serial_engine.Execute(qg, kTopK);
        if (parallel_answers.ok() && serial_answers.ok() &&
            AnswerSignature(*parallel_answers) !=
                AnswerSignature(*serial_answers)) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION on %s: parallel answers "
                       "differ from serial\n",
                       bq.name.c_str());
          return 1;
        }
      }

      double sama_ms = AverageMillis(
          [&] {
            // Cold = nothing resident: pages, index-side caches AND the
            // engine-side memos (alignment/label) all dropped.
            if (cold) {
              (void)env.index->DropCaches();
              engine.DropQueryCaches();
            }
            (void)engine.Execute(qg, kTopK);
          },
          kRuns);
      if (cold) {
        row.cold_ms = sama_ms;
      } else {
        row.warm_ms = sama_ms;
      }
      // The competitor systems run in memory: the cache condition only
      // distinguishes the disk-backed Sama index (their cold ≈ warm).
      double sapper_ms =
          AverageMillis([&] { (void)sapper.Execute(qg, kTopK); }, kRuns);
      double bounded_ms =
          AverageMillis([&] { (void)bounded.Execute(qg, kTopK); }, kRuns);
      double dogma_ms =
          AverageMillis([&] { (void)dogma.Execute(qg, kTopK); }, kRuns);
      std::printf("%-5s %10.2f %10.2f %10.2f %10.2f\n", bq.name.c_str(),
                  sama_ms, sapper_ms, bounded_ms, dogma_ms);
    }
    std::printf("\n");
  }
  // Warm per-phase breakdown, score-bounded search vs the exhaustive
  // ablation. Answers are identical (the bound is admissible); only the
  // work differs, quantified by the pruning ratio.
  std::printf("--- per-phase (warm): pruning on vs off ---\n");
  std::printf("%-5s %9s %9s %9s | %9s %9s | %6s %6s %6s %6s\n", "Q",
              "total", "cluster", "search", "total*", "search*", "prune%",
              "align%", "rec%", "look%");
  {
    size_t row_index = 0;
    for (const sama::BenchmarkQuery& bq : sama::MakeLubmQueries()) {
      auto parsed = sama::ParseSparql(bq.sparql);
      if (!parsed.ok()) continue;
      sama::QueryGraph qg = parsed->ToQueryGraph(env.graph->shared_dict());
      QueryRow& row = rows[row_index++];
      sama::QueryStats stats;
      double total = 0;
      AveragePhases(engine, qg, kRuns, &total, &row.clustering_ms,
                    &row.search_ms, &stats);
      row.pruning_ratio = stats.SearchPruningRatio();
      row.alignment_hit_rate = stats.alignment_memo.HitRate();
      row.record_hit_rate = stats.path_record_cache.HitRate();
      row.lookup_hit_rate = stats.path_lookup_cache.HitRate();
      row.search_expansions = stats.search_expansions;
      row.search_truncated = stats.search_truncated;
      sama::QueryStats noprune_stats;
      double noprune_clustering = 0;
      AveragePhases(noprune_engine, qg, kRuns, &row.warm_noprune_ms,
                    &noprune_clustering, &row.noprune_search_ms,
                    &noprune_stats);
      row.noprune_search_expansions = noprune_stats.search_expansions;
      row.noprune_search_truncated = noprune_stats.search_truncated;
      // The identical-answers contract: whenever NEITHER path was cut
      // short by the anytime budget, the optimized engine must return
      // the exact same ranked answers. (A truncated exhaustive run is
      // not an oracle: pruning saves budget, so under the same budget
      // the optimized path legitimately reaches better answers.)
      if (!noprune_stats.search_truncated && !stats.search_truncated) {
        auto pruned_answers = engine.Execute(qg, kTopK);
        auto exhaustive_answers = noprune_engine.Execute(qg, kTopK);
        if (pruned_answers.ok() && exhaustive_answers.ok() &&
            AnswerSignature(*pruned_answers) !=
                AnswerSignature(*exhaustive_answers)) {
          std::fprintf(stderr,
                       "PRUNING VIOLATION on %s: optimized answers differ "
                       "from the exhaustive path\n",
                       bq.name.c_str());
          return 1;
        }
      }
      std::printf(
          "%-5s %9.3f %9.3f %9.3f | %9.3f %9.3f | %5.1f%% %5.1f%% %5.1f%% "
          "%5.1f%%\n",
          bq.name.c_str(), total, row.clustering_ms, row.search_ms,
          row.warm_noprune_ms, row.noprune_search_ms,
          100 * row.pruning_ratio, 100 * row.alignment_hit_rate,
          100 * row.record_hit_rate, 100 * row.lookup_hit_rate);
    }
  }
  std::printf("(* = exhaustive search ablation; prune%% = combinations "
              "skipped by the score bound; align/rec/look = warm hit rates "
              "of the alignment memo, record and lookup caches)\n\n");

  if (!json_path.empty()) {
    WriteJson(json_path, threads == 0 ? sama::ThreadPool::HardwareThreads()
                                      : threads,
              env.graph->edge_count(), max_expansions, rows);
  }
  return 0;
}
