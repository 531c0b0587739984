// Deadline semantics, engine level and server level: an expired
// deadline deterministically yields a truncated-but-well-formed
// answer; a short per-request deadline on a genuinely slow query
// (exhaustive search over LUBM) cuts the search and flags truncation;
// and a deadline that never fires leaves answers byte-identical to a
// no-deadline run (the determinism contract only bends when the clock
// actually runs out).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "core/engine.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "obs/metrics.h"
#include "query/sparql.h"
#include "server/binary_server.h"
#include "server/client.h"
#include "testing/fixtures.h"

namespace sama {
namespace {

using testing_util::GovTrackEnv;

// Fully deterministic truncation: a deadline already in the past when
// the search starts. No subtree runs, the best-so-far (empty) answer
// set returns, and search_truncated reports the cut — the query result
// is well-formed, never an error.
TEST(DeadlineTest, ExpiredDeadlineTruncatesDeterministically) {
  GovTrackEnv env;
  QueryContext ctx;
  ctx.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  QueryStats stats;
  auto answers = env.engine().Execute(env.Query1(), 10, &stats, ctx);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_TRUE(stats.search_truncated);
}

TEST(DeadlineTest, EpochDefaultMeansNoDeadline) {
  GovTrackEnv env;
  QueryStats stats;
  auto answers = env.engine().Execute(env.Query1(), 10, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(stats.search_truncated);
  EXPECT_FALSE(answers->empty());
}

TEST(DeadlineTest, FarFutureDeadlineLeavesAnswersIdentical) {
  GovTrackEnv env;
  auto baseline = env.engine().Execute(env.Query1(), 10);
  ASSERT_TRUE(baseline.ok());

  QueryContext ctx;
  ctx.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  QueryStats stats;
  auto answers = env.engine().Execute(env.Query1(), 10, &stats, ctx);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(stats.search_truncated);

  // Byte-level comparison through the shared wire encoder.
  std::vector<std::string> vars{"v1", "v2", "v3"};
  EXPECT_EQ(EncodeQueryResult(MakeQueryResultWire(*answers, vars, false)),
            EncodeQueryResult(
                MakeQueryResultWire(*baseline, vars, false)));
}

// Server level: a slow query (exhaustive branch-and-bound over LUBM —
// minutes of search at full budget) with a 5ms request deadline must
// come back promptly as a well-formed, truncated result.
class SlowServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmConfig config;
    config.universities = 1;
    graph_ = new DataGraph(DataGraph::FromTriples(GenerateLubm(config)));
    index_ = new PathIndex();
    PathIndexOptions options;  // In-memory.
    ASSERT_TRUE(index_->Build(*graph_, options).ok());
    thesaurus_ = new Thesaurus(Thesaurus::BuiltinEnglish());
    EngineOptions engine_options;
    // The exhaustive ablation: no pruning and an effectively unbounded
    // expansion budget, so only the deadline can stop the search.
    engine_options.params.prune_search = false;
    engine_options.search.max_expansions = size_t{1} << 40;
    engine_ = new SamaEngine(graph_, index_, thesaurus_, engine_options);
  }

  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete thesaurus_;
    thesaurus_ = nullptr;
    delete index_;
    index_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static DataGraph* graph_;
  static PathIndex* index_;
  static Thesaurus* thesaurus_;
  static SamaEngine* engine_;
};

DataGraph* SlowServerTest::graph_ = nullptr;
PathIndex* SlowServerTest::index_ = nullptr;
Thesaurus* SlowServerTest::thesaurus_ = nullptr;
SamaEngine* SlowServerTest::engine_ = nullptr;

TEST_F(SlowServerTest, FiveMillisecondDeadlineTruncatesSlowQuery) {
  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.registry = &registry;
  BinaryQueryServer server(engine_, options);
  ASSERT_TRUE(server.Start().ok());

  BinaryClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  // Q10, the heaviest exact query group: 11+ query paths, an
  // astronomically large exhaustive combination space.
  QueryRequest request;
  request.sparql = MakeLubmQueries()[9].sparql;
  request.k = 5;
  request.deadline_ms = 5;
  auto result = client.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  // A deadline cut is a RESULT with the truncated flag, not an error.
  EXPECT_EQ(result->status, WireStatus::kOk);
  EXPECT_TRUE(result->truncated);

  EXPECT_EQ(server.stats().queries_truncated, 1u);
  EXPECT_EQ(server.stats().errors, 0u);
  server.Stop();
}

TEST_F(SlowServerTest, ServerDefaultDeadlineAppliesWhenRequestHasNone) {
  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.registry = &registry;
  options.default_deadline_ms = 5;
  BinaryQueryServer server(engine_, options);
  ASSERT_TRUE(server.Start().ok());

  BinaryClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  QueryRequest request;
  request.sparql = MakeLubmQueries()[9].sparql;
  request.k = 5;
  request.deadline_ms = 0;  // Falls back to the server default.
  auto result = client.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->status, WireStatus::kOk);
  EXPECT_TRUE(result->truncated);
  server.Stop();
}

}  // namespace
}  // namespace sama
