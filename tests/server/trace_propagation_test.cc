// End-to-end distributed tracing (DESIGN.md §15): a client-supplied
// trace context rides the v2 header extension, the server adopts it,
// and the one QueryTrace registered in the server's TraceStore ends up
// holding the whole story — request spans, engine execution, per-shard
// clustering with shard attributes, and WAL append/fsync/apply for
// updates — across MULTIPLE requests carrying the same trace id.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/govtrack.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "server/binary_server.h"
#include "server/client.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

constexpr char kMaleSparql[] =
    "PREFIX gov: <http://gov.example.org/>\n"
    "SELECT ?p WHERE { ?p gov:gender \"Male\" }";

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/trace_prop_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> SpanNames(const QueryTrace& trace) {
  std::vector<std::string> names;
  for (const TraceSpan& s : trace.Snapshot()) names.push_back(s.name);
  return names;
}

bool HasSpan(const std::vector<std::string>& names, const std::string& want) {
  return std::find(names.begin(), names.end(), want) != names.end();
}

TEST(TracePropagationTest, UpdateAndQueryStitchIntoOneTree) {
  std::string dir = FreshDir("single");
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  PathIndex index;
  PathIndexOptions po;
  po.dir = dir;
  ASSERT_TRUE(index.Build(graph, po).ok());
  SamaEngine engine(&graph, &index, &thesaurus);
  ASSERT_TRUE(engine.EnableUpdates(&graph, &index, {}).ok());

  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.port = 0;
  options.registry = &registry;
  BinaryQueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  TraceContext ctx;
  ASSERT_TRUE(TraceContext::ParseTraceId("deadbeef", &ctx));
  BinaryClient client;
  client.set_trace(ctx);
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());

  UpdateRequest update;
  update.op = UpdateRequest::kOpInsert;
  update.statement =
      "<http://gov.example.org/NewSenator> "
      "<http://gov.example.org/gender> \"Male\" .";
  auto applied = client.Update(update, 1);
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_EQ(applied->status, WireStatus::kOk);

  QueryRequest query;
  query.sparql = kMaleSparql;
  query.k = 10;
  auto result = client.Query(query, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->status, WireStatus::kOk);

  // One registered trace, addressable by the propagated id.
  EXPECT_EQ(server.trace_store().size(), 1u);
  std::shared_ptr<QueryTrace> trace =
      server.trace_store().Find(ctx.TraceIdHex());
  ASSERT_NE(trace, nullptr);

  std::vector<TraceSpan> spans = trace->Snapshot();
  std::vector<std::string> names = SpanNames(*trace);
  // Two request roots (update then query), both parented at the
  // client's span (0 here).
  size_t roots = 0;
  for (const TraceSpan& s : spans) {
    if (s.name == "request" && s.parent == 0) ++roots;
  }
  EXPECT_EQ(roots, 2u);
  // The WAL's contribution.
  EXPECT_TRUE(HasSpan(names, "wal.append"));
  EXPECT_TRUE(HasSpan(names, "wal.fsync"));
  EXPECT_TRUE(HasSpan(names, "wal.apply"));
  // The query's contribution.
  EXPECT_TRUE(HasSpan(names, "execute"));
  EXPECT_TRUE(HasSpan(names, "query"));
  EXPECT_TRUE(HasSpan(names, "search"));
  // Every non-root span is parented inside the tree.
  for (const TraceSpan& s : spans) {
    if (s.parent == 0) continue;
    bool found = false;
    for (const TraceSpan& p : spans) found = found || p.id == s.parent;
    EXPECT_TRUE(found) << s.name << " has dangling parent " << s.parent;
  }
  server.Stop();
}

TEST(TracePropagationTest, UntracedRequestsLeaveTheStoreEmpty) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, {}).ok());
  SamaEngine engine(&graph, &index, &thesaurus);
  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.port = 0;
  options.registry = &registry;
  BinaryQueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  BinaryClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  QueryRequest query;
  query.sparql = kMaleSparql;
  auto result = client.Query(query, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->status, WireStatus::kOk);
  EXPECT_EQ(server.trace_store().size(), 0u);
  server.Stop();
}

// A served query's slow-query record is joinable to its client: the
// server hands its request id and the propagated trace id to the engine
// with the query, and the engine's "query" span lands under the
// server's "execute" span.
TEST(TracePropagationTest, SlowQueryRecordCarriesRequestAndTraceIds) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, {}).ok());
  EngineOptions engine_options;
  engine_options.obs.metrics = false;
  engine_options.obs.slow_query_millis = 1e-9;  // Record every query.
  SamaEngine engine(&graph, &index, &thesaurus, engine_options);
  ASSERT_NE(engine.slow_query_log(), nullptr);

  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.port = 0;
  options.registry = &registry;
  BinaryQueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  TraceContext ctx;
  ASSERT_TRUE(TraceContext::ParseTraceId("5eed1e55", &ctx));
  BinaryClient client;
  client.set_trace(ctx);
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  QueryRequest query;
  query.sparql = kMaleSparql;
  query.k = 10;
  constexpr uint64_t kRequestId = 4242;
  auto result = client.Query(query, kRequestId);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->status, WireStatus::kOk);
  server.Stop();

  std::vector<SlowQueryRecord> records = engine.slow_query_log()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].request_id, kRequestId);
  EXPECT_EQ(records[0].trace_id, ctx.TraceIdHex());

  std::shared_ptr<QueryTrace> trace =
      server.trace_store().Find(ctx.TraceIdHex());
  ASSERT_NE(trace, nullptr);
  uint64_t execute = 0;
  uint64_t query_parent = 0;
  size_t query_spans = 0;
  for (const TraceSpan& s : trace->Snapshot()) {
    if (s.name == "execute") execute = s.id;
    if (s.name == "query") {
      query_parent = s.parent;
      ++query_spans;
    }
  }
  ASSERT_NE(execute, 0u);
  EXPECT_EQ(query_spans, 1u);
  EXPECT_EQ(query_parent, execute);
}

TEST(TracePropagationTest, ShardedServeTracesPerShardAndRefusesUpdates) {
  std::string dir = FreshDir("sharded");
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  ShardedIndexOptions so;
  so.num_shards = 4;
  ShardBuildReport report;
  ASSERT_TRUE(BuildShardedIndex(graph, dir, so, &report).ok());
  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Open(&graph, dir, /*strict=*/false).ok());
  ShardedEngine engine(&graph, &sharded, &thesaurus, {});

  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.port = 0;
  options.registry = &registry;
  BinaryQueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  TraceContext ctx;
  ASSERT_TRUE(TraceContext::ParseTraceId("cafef00d", &ctx));
  BinaryClient client;
  client.set_trace(ctx);
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());

  QueryRequest query;
  query.sparql = kMaleSparql;
  query.k = 10;
  auto result = client.Query(query, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->status, WireStatus::kOk);
  EXPECT_FALSE(result->answers.empty());

  std::shared_ptr<QueryTrace> trace =
      server.trace_store().Find(ctx.TraceIdHex());
  ASSERT_NE(trace, nullptr);
  std::vector<TraceSpan> spans = trace->Snapshot();
  std::vector<std::string> names = SpanNames(*trace);
  EXPECT_TRUE(HasSpan(names, "request"));
  EXPECT_TRUE(HasSpan(names, "search"));
  // The engine's own span tree: one clustering span with one
  // shard-N.cluster child per live shard, each stamped with its shard
  // id, then one search.
  uint64_t clustering = 0;
  for (const TraceSpan& s : spans) {
    if (s.name == "clustering") clustering = s.id;
  }
  ASSERT_NE(clustering, 0u);
  size_t shard_spans = 0;
  for (const TraceSpan& s : spans) {
    if (s.name.rfind("shard-", 0) != 0) continue;
    ++shard_spans;
    EXPECT_EQ(s.parent, clustering) << s.name;
    std::string shard;
    for (const auto& kv : s.attrs) {
      if (kv.first == "shard") shard = kv.second;
    }
    EXPECT_EQ(s.name, "shard-" + shard + ".cluster");
  }
  EXPECT_EQ(shard_spans, 4u);

  // Sharded serving is read-only: UPDATE answers kReadOnly without
  // touching the connection.
  UpdateRequest update;
  update.op = UpdateRequest::kOpInsert;
  update.statement =
      "<http://gov.example.org/X> <http://gov.example.org/gender> "
      "\"Male\" .";
  auto applied = client.Update(update, 2);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->status, WireStatus::kReadOnly);
  // The connection still works.
  auto again = client.Query(query, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, WireStatus::kOk);
  server.Stop();
}

}  // namespace
}  // namespace sama
