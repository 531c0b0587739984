// Pins ForestSearch's work and answers to a fixed reference: for LUBM-1
// Q1-Q12 and Berlin B1-B6 at every k in {1, 5, 20}, both expansion
// budgets and with pruning on and off, the expansion and prune counters,
// the truncation flag and a hash of the lossless ranked-answer signature
// must equal the line recorded in tests/data/forest_search.golden. Both
// budgets truncate some queries, so this also pins the anytime answers
// that the pruned-vs-exhaustive suite skips. The last 24 lines are
// Figure 6's configuration (bench_fig6_query_time at the default
// SAMA_BENCH_SCALE): LUBM with 3 universities, Q1-Q12 at k = 10 under a
// 500,000-expansion budget, pruning on and off, without SELECT dedup or
// FILTER, as SamaEngine::Execute runs them. Every case runs at 1 and at
// 4 threads against the same line.
//
// The reference must not be regenerated to make a kernel change pass:
// a changed line means the search did different work or ranked
// differently.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/forest_search.h"
#include "core/intersection_graph.h"
#include "datasets/berlin.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "query/filter.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

constexpr bool kPrune[] = {true, false};

// The (k, budget) pairs one dataset's queries run at, each with pruning
// on and off.
struct Grid {
  std::vector<size_t> top_k;
  std::vector<size_t> budgets;
  // ExecuteSparql's projection and FILTER semantics; off for
  // SamaEngine::Execute.
  bool sparql = true;
};

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Lossless: scores via %.17g, parts by (query path slot, data path id),
// the canonical enumeration key and the consistency flag, in rank order.
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
    out += '[';
    for (uint32_t e : a.enum_key) {
      out += std::to_string(e);
      out += ',';
    }
    out += a.consistent ? "];ok\n" : "];inconsistent\n";
  }
  return out;
}

std::string ReadGolden() {
  std::string path =
      std::string(SAMA_TEST_DATA_DIR) + "/forest_search.golden";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One dataset's graph, index and thesaurus; clusters are built once per
// query, so the cases time the search alone.
class GoldenEnv {
 public:
  explicit GoldenEnv(std::vector<Triple> triples)
      : graph_(DataGraph::FromTriples(std::move(triples))),
        thesaurus_(Thesaurus::BuiltinEnglish()) {
    Status s = index_.Build(graph_, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  // Appends one line per (k, budget, prune) case of `q`, checking that
  // the 4-thread run matches the 1-thread one it is recorded from.
  void Run(const BenchmarkQuery& q, const Grid& grid, ThreadPool* pool,
           std::string* lines) {
    auto parsed = ParseSparql(q.sparql);
    ASSERT_TRUE(parsed.ok()) << q.name << ": " << parsed.status();
    QueryGraph query = parsed->ToQueryGraph(graph_.shared_dict());
    IntersectionQueryGraph ig(query);
    ScoreParams params;
    auto clusters =
        BuildClusters(query, index_, &thesaurus_, params, ClusteringOptions());
    ASSERT_TRUE(clusters.ok()) << q.name << ": " << clusters.status();

    ForestSearchOptions options;
    if (grid.sparql && !parsed->select_all) {
      options.dedup_vars = parsed->select_vars;
    }
    if (grid.sparql && !parsed->filters.empty()) {
      options.binding_filter = [filters = parsed->filters](
                                   const Substitution& binding) {
        return PassesFilters(filters, binding);
      };
    }
    for (size_t k : grid.top_k) {
      for (size_t budget : grid.budgets) {
        for (bool prune : kPrune) {
          options.k = k;
          options.max_expansions = budget;
          params.prune_search = prune;
          char buf[256];
          std::string line;
          for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), pool}) {
            ForestSearchStats stats;
            auto answers = ForestSearch(query, ig, *clusters, params,
                                        options, p, nullptr, &stats);
            ASSERT_TRUE(answers.ok()) << q.name << ": " << answers.status();
            std::snprintf(
                buf, sizeof(buf),
                "%s k=%zu max=%zu prune=%d expansions=%llu bound_pruned=%llu "
                "roots_pruned=%llu truncated=%d answers=%zu sig=%016llx\n",
                q.name.c_str(), k, budget, prune ? 1 : 0,
                static_cast<unsigned long long>(stats.expansions),
                static_cast<unsigned long long>(stats.bound_pruned),
                static_cast<unsigned long long>(stats.roots_pruned),
                stats.truncated ? 1 : 0, answers->size(),
                static_cast<unsigned long long>(Fnv1a(Signature(*answers))));
            if (p == nullptr) {
              line = buf;
            } else {
              EXPECT_EQ(std::string(buf), line) << "at 4 threads";
            }
          }
          *lines += line;
        }
      }
    }
  }

 private:
  DataGraph graph_;
  PathIndex index_;
  Thesaurus thesaurus_;
};

TEST(ForestSearchGoldenTest, WorkAndAnswersMatchReference) {
  ThreadPool pool(3);  // With the calling thread: 4 threads.
  const Grid sparql{{1, 5, 20}, {2000, 50000}, /*sparql=*/true};
  const Grid fig6{{10}, {500000}, /*sparql=*/false};
  std::string lines;
  {
    LubmConfig config;
    config.universities = 1;
    GoldenEnv env(GenerateLubm(config));
    for (const BenchmarkQuery& q : MakeLubmQueries()) {
      env.Run(q, sparql, &pool, &lines);
    }
  }
  {
    BerlinConfig config;
    config.products = 100;
    GoldenEnv env(GenerateBerlin(config));
    for (const BenchmarkQuery& q : MakeBerlinQueries()) {
      env.Run(q, sparql, &pool, &lines);
    }
  }
  {
    LubmConfig config;
    config.universities = 3;
    GoldenEnv env(GenerateLubm(config));
    for (const BenchmarkQuery& q : MakeLubmQueries()) {
      env.Run(q, fig6, &pool, &lines);
    }
  }

  const std::string golden = ReadGolden();
  std::istringstream want(golden), got(lines);
  std::string want_line, got_line;
  size_t n = 0, mismatched = 0;
  while (std::getline(got, got_line)) {
    ++n;
    if (!std::getline(want, want_line)) want_line.clear();
    if (got_line != want_line) {
      ++mismatched;
      ADD_FAILURE() << "case " << n << " differs from the reference\n"
                    << "  want: " << want_line << "\n  got:  " << got_line;
    }
  }
  EXPECT_FALSE(std::getline(want, want_line))
      << "the reference has more cases than were run";
  EXPECT_EQ(n, (12u + 6u) * 3u * 2u * 2u + 12u * 2u);
  if (mismatched != 0) std::printf("computed reference:\n%s", lines.c_str());
}

}  // namespace
}  // namespace sama
