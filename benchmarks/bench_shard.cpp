// Sharded search benchmark (DESIGN.md §14): builds one single PathIndex
// and N-shard ShardedIndex builds over the same LUBM graph, runs the
// benchmark workload through both, and gates two claims before any
// timing is believed:
//
//   1. Byte-identity: for every query, truncated by the anytime budget
//      or not, every shard count must return the single index's
//      answers — same scores, same tie-break order, same global path
//      ids. Divergence lands in summary.mismatches and fails the run.
//   2. Same work: a sharded engine runs one forest search over the
//      single index's candidate lists, so every shard run's total
//      expansions must equal the single index's; a difference fails
//      the run.
//
// Timings (per-shard-count mean latency) are reported for the
// regression gate's machine-dependent checks. --json=FILE writes the
// artifact gated by tools/check_bench_regression.py --mode=shard.
//
// Scale: --universities=N drives the LUBM generator (each university
// is a few hundred triples; N≈30000 crosses 10M triples for cluster-
// scale runs). The committed baseline uses a laptop-sized N so CI
// stays in seconds.
#include <algorithm>
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
#include "index/path_index.h"
#include "query/sparql.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  size_t universities = 5;
  std::vector<size_t> shard_counts = {2, 4};
  size_t k = 5;
  size_t threads = 1;
  // Ample so most of the workload finishes untruncated; Q10–Q12 still
  // truncate and are byte-compared like every other query.
  uint64_t max_expansions = 2000000;
  std::string json_path;
};

// Lossless answer-list signature: scores via %.17g round-trip exactly,
// order preserved, so any tie-break divergence changes the bytes.
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
  bool truncated = false;  // The single index ran out of budget.
  double single_ms = 0;
  std::vector<uint8_t> match;  // Parallel to shard_counts.
};

struct ShardRun {
  size_t shards = 0;
  double mean_ms = 0;
  uint64_t expansions = 0;
  uint64_t degraded = 0;
};

std::string TempDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("sama_bench_shard_" + tag))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

int Run(const Options& options) {
  LubmConfig config;
  config.universities = options.universities;
  std::fprintf(stderr, "generating LUBM (%zu universities)...\n",
               options.universities);
  DataGraph graph = DataGraph::FromTriples(GenerateLubm(config));
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();

  std::fprintf(stderr, "building single index...\n");
  PathIndex single_index;
  Status built = single_index.Build(graph, PathIndexOptions());
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }

  EngineOptions engine_options;
  engine_options.num_threads = options.threads;
  engine_options.search.max_expansions = options.max_expansions;
  SamaEngine single(&graph, &single_index, &thesaurus, engine_options);

  // One sharded build + engine per shard count, over temp dirs the
  // process cleans on the next run.
  std::vector<std::unique_ptr<ShardedIndex>> indexes;
  std::vector<std::unique_ptr<ShardedEngine>> engines;
  for (size_t shards : options.shard_counts) {
    std::string dir = TempDir(std::to_string(shards));
    ShardedIndexOptions sopts;
    sopts.num_shards = shards;
    sopts.num_threads = options.threads == 0 ? 0 : options.threads;
    std::fprintf(stderr, "building %zu-shard index in %s...\n", shards,
                 dir.c_str());
    Status s = BuildShardedIndex(graph, dir, sopts);
    if (!s.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    auto index = std::make_unique<ShardedIndex>();
    s = index->Open(&graph, dir, /*strict=*/true);
    if (!s.ok()) {
      std::fprintf(stderr, "sharded open failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    engines.push_back(std::make_unique<ShardedEngine>(
        &graph, index.get(), &thesaurus, engine_options));
    indexes.push_back(std::move(index));
  }

  std::vector<BenchmarkQuery> queries = MakeLubmQueries();
  std::vector<QueryRow> rows;
  std::vector<ShardRun> runs(options.shard_counts.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i].shards = options.shard_counts[i];
  }
  uint64_t mismatches = 0;
  uint64_t single_expansions = 0;
  double single_total_ms = 0;

  for (const BenchmarkQuery& q : queries) {
    auto parsed = ParseSparql(q.sparql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "query %s does not parse: %s\n", q.name.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    QueryRow row;
    row.name = q.name;

    QueryStats serial_stats;
    Clock::time_point t0 = Clock::now();
    auto serial = single.ExecuteSparql(*parsed, options.k, &serial_stats);
    row.single_ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
    if (!serial.ok()) {
      std::fprintf(stderr, "query %s failed: %s\n", q.name.c_str(),
                   serial.status().ToString().c_str());
      return 1;
    }
    single_total_ms += row.single_ms;
    single_expansions += serial_stats.search_expansions;
    row.truncated = serial_stats.search_truncated;
    const std::string want = Signature(*serial);

    for (size_t e = 0; e < engines.size(); ++e) {
      QueryStats stats;
      t0 = Clock::now();
      auto got = engines[e]->ExecuteSparql(*parsed, options.k, &stats);
      double ms = std::chrono::duration<double, std::milli>(
                      Clock::now() - t0)
                      .count();
      if (!got.ok()) {
        std::fprintf(stderr, "query %s (%zu shards) failed: %s\n",
                     q.name.c_str(), runs[e].shards,
                     got.status().ToString().c_str());
        return 1;
      }
      runs[e].mean_ms += ms;
      runs[e].expansions += stats.search_expansions;
      runs[e].degraded += stats.shards_degraded;
      const bool match = Signature(*got) == want;
      if (!match) {
        ++mismatches;
        std::fprintf(stderr, "MISMATCH: %s diverges at %zu shard(s)\n",
                     q.name.c_str(), runs[e].shards);
      }
      row.match.push_back(match ? 1 : 0);
    }
    rows.push_back(std::move(row));
  }
  bool same_work = true;
  for (ShardRun& run : runs) {
    run.mean_ms /= static_cast<double>(queries.size());
    same_work = same_work && run.expansions == single_expansions;
  }
  const double single_mean_ms =
      single_total_ms / static_cast<double>(queries.size());

  std::printf("shard bench: %zu queries byte-compared, %llu mismatch(es)\n",
              queries.size(), static_cast<unsigned long long>(mismatches));
  std::printf("  single index: mean %.2f ms, %llu expansion(s)\n",
              single_mean_ms,
              static_cast<unsigned long long>(single_expansions));
  for (const ShardRun& run : runs) {
    std::printf("  %zu shard(s): mean %.2f ms (%.2fx single), %llu "
                "expansion(s) (single %llu), %llu degraded\n",
                run.shards, run.mean_ms,
                single_mean_ms > 0 ? run.mean_ms / single_mean_ms : 0.0,
                static_cast<unsigned long long>(run.expansions),
                static_cast<unsigned long long>(single_expansions),
                static_cast<unsigned long long>(run.degraded));
  }
  if (!same_work) {
    std::fprintf(stderr, "a shard run's expansions differ from the single "
                 "index's; sharded search must do the same work\n");
  }

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"shard\",\n");
    std::fprintf(f, "  \"universities\": %zu,\n", options.universities);
    std::fprintf(f, "  \"k\": %zu,\n  \"threads\": %zu,\n", options.k,
                 options.threads);
    std::fprintf(f,
                 "  \"summary\": {\"mismatches\": %llu, "
                 "\"queries_compared\": %zu, "
                 "\"single_mean_ms\": %.4f, "
                 "\"single_expansions\": %llu},\n",
                 static_cast<unsigned long long>(mismatches), queries.size(),
                 FiniteOr(single_mean_ms),
                 static_cast<unsigned long long>(single_expansions));
    std::fprintf(f, "  \"shard_runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(f,
                   "    {\"shards\": %zu, \"mean_ms\": %.4f, "
                   "\"expansions\": %llu, \"degraded\": %llu}%s\n",
                   runs[i].shards, FiniteOr(runs[i].mean_ms),
                   static_cast<unsigned long long>(runs[i].expansions),
                   static_cast<unsigned long long>(runs[i].degraded),
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"queries\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const QueryRow& row = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"truncated\": %s, "
                   "\"single_ms\": %.4f, \"matches\": [",
                   row.name.c_str(), row.truncated ? "true" : "false",
                   FiniteOr(row.single_ms));
      for (size_t j = 0; j < row.match.size(); ++j) {
        std::fprintf(f, "%s%s", j ? ", " : "",
                     row.match[j] ? "true" : "false");
      }
      std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  return mismatches == 0 && same_work ? 0 : 1;
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
      options.shard_counts.clear();
      std::string spec = v;
      for (size_t pos = 0; pos <= spec.size();) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        if (comma > pos) {
          options.shard_counts.push_back(
              std::strtoul(spec.substr(pos, comma - pos).c_str(), nullptr,
                           10));
        }
        pos = comma + 1;
      }
    } else if (const char* v = value("--k=")) {
      options.k = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--threads=")) {
      options.threads = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--max-expansions=")) {
      options.max_expansions = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--universities=N] [--shards=N,N,...] "
                   "[--k=N] [--threads=N] [--max-expansions=N] "
                   "[--json=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.universities == 0 || options.shard_counts.empty()) {
    std::fprintf(stderr, "invalid --universities/--shards\n");
    return 2;
  }
  for (size_t s : options.shard_counts) {
    if (s == 0) {
      std::fprintf(stderr, "--shards entries must be >= 1\n");
      return 2;
    }
  }
  return sama::bench::Run(options);
}
