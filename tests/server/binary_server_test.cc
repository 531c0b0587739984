// Behavioural tier for the binary query server: command round trips,
// the serving determinism contract (pipelined answers byte-identical
// to serial and to direct engine execution, at 1 and 4 workers),
// admission control and load shedding, connection limits, remote
// shutdown, metrics export through a private registry, per-request
// trace spans, and teardown with pipelined requests still in flight
// (the TSan tier runs exactly that scenario).
#include "server/binary_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/http_server.h"
#include "obs/metrics.h"
#include "query/sparql.h"
#include "server/client.h"
#include "testing/fixtures.h"

namespace sama {
namespace {

using testing_util::GovTrackEnv;

constexpr char kQuerySparql[] =
    "PREFIX gov: <http://gov.example.org/>\n"
    "SELECT ?v1 WHERE { ?v1 gov:hasSubject gov:HealthCare }";

// A GovTrack engine plus a running server on an ephemeral port, with a
// per-test metrics registry so counter assertions see only this
// server's traffic.
struct ServerFixture {
  explicit ServerFixture(BinaryQueryServer::Options options = {}) {
    options.port = 0;
    options.registry = &registry;
    server = std::make_unique<BinaryQueryServer>(&env.engine(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  BinaryClient Connect() {
    BinaryClient client;
    Status s = client.Connect(server->host(), server->port());
    EXPECT_TRUE(s.ok()) << s;
    return client;
  }

  GovTrackEnv env;
  MetricsRegistry registry;
  std::unique_ptr<BinaryQueryServer> server;
};

// What the server must produce for `sparql`: the direct engine
// execution serialised through the shared result encoder.
std::string DirectWireBytes(SamaEngine& engine, const std::string& sparql,
                            size_t k) {
  auto parsed = ParseSparql(sparql);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  QueryStats stats;
  auto answers = engine.ExecuteSparql(*parsed, k, &stats);
  EXPECT_TRUE(answers.ok()) << answers.status();
  return EncodeQueryResult(MakeQueryResultWire(
      *answers, parsed->select_vars, stats.search_truncated));
}

TEST(BinaryServerTest, BindsEphemeralPort) {
  ServerFixture fx;
  EXPECT_NE(fx.server->port(), 0);
  EXPECT_EQ(fx.server->host(), "127.0.0.1");
}

// Regression for the shared listener utility: BOTH servers must
// resolve --port 0 to the bound ephemeral port.
TEST(BinaryServerTest, EphemeralPortWorksForBothServers) {
  ServerFixture fx;
  EXPECT_NE(fx.server->port(), 0);

  ObsHttpServer::Options http_options;
  http_options.port = 0;
  ObsHttpServer http(http_options);
  http.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  Status started = http.Start();
  ASSERT_TRUE(started.ok()) << started;
  EXPECT_NE(http.port(), 0);
  EXPECT_NE(http.port(), fx.server->port());
  http.Stop();
}

TEST(BinaryServerTest, PingEchoesPayload) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  std::string payload = "hello\0world";
  auto echo = client.Ping(payload, 42);
  ASSERT_TRUE(echo.ok()) << echo.status();
  EXPECT_EQ(*echo, payload);
}

TEST(BinaryServerTest, EchoesRequestIdVerbatim) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  Frame frame;
  frame.type = FrameType::kPing;
  frame.request_id = 0xdeadbeefcafef00dULL;
  ASSERT_TRUE(client.SendFrame(frame).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, FrameType::kPong);
  EXPECT_EQ(reply->request_id, 0xdeadbeefcafef00dULL);
}

TEST(BinaryServerTest, StatsCommandReportsCounters) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  ASSERT_TRUE(client.Ping("x").ok());
  auto text = client.StatsText();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("connections_accepted 1"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("requests 2"), std::string::npos) << *text;
  EXPECT_NE(text->find("queue_depth 0"), std::string::npos) << *text;
}

TEST(BinaryServerTest, QueryAnswersMatchDirectEngineByteForByte) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  QueryRequest request;
  request.sparql = kQuerySparql;
  request.k = 5;
  ASSERT_TRUE(client.SendQuery(request, 7).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrameType::kResult);
  EXPECT_EQ(reply->request_id, 7u);
  // The serving determinism contract: the wire payload equals the
  // direct engine execution, byte for byte.
  EXPECT_EQ(reply->payload,
            DirectWireBytes(fx.env.engine(), kQuerySparql, 5));

  QueryResultWire result;
  ASSERT_TRUE(DecodeQueryResult(reply->payload, &result));
  EXPECT_EQ(result.status, WireStatus::kOk);
  EXPECT_FALSE(result.truncated);
  EXPECT_FALSE(result.answers.empty());
  for (const auto& answer : result.answers) {
    ASSERT_EQ(answer.bindings.size(), 1u);
    EXPECT_EQ(answer.bindings[0].var, "v1");
    EXPECT_FALSE(answer.bindings[0].value.empty());
  }
}

// N pipelined queries must come back in request order, each
// byte-identical to (a) the same queries issued serially and (b) the
// direct engine execution — at 1 worker and at 4 workers, where
// completion order genuinely races.
void RunPipeliningDeterminism(size_t num_workers) {
  BinaryQueryServer::Options options;
  options.num_workers = num_workers;
  ServerFixture fx(options);

  std::vector<std::string> sparqls;
  std::vector<size_t> ks;
  for (int i = 0; i < 12; ++i) {
    sparqls.push_back(kQuerySparql);
    ks.push_back(static_cast<size_t>(1 + (i % 6)));  // Distinct work.
  }

  // Serial reference over its own connection.
  std::vector<std::string> serial;
  {
    BinaryClient client = fx.Connect();
    for (size_t i = 0; i < sparqls.size(); ++i) {
      QueryRequest request;
      request.sparql = sparqls[i];
      request.k = static_cast<uint32_t>(ks[i]);
      ASSERT_TRUE(client.SendQuery(request, i).ok());
      auto reply = client.ReadFrame();
      ASSERT_TRUE(reply.ok()) << reply.status();
      ASSERT_EQ(reply->type, FrameType::kResult);
      serial.push_back(reply->payload);
    }
  }

  // Pipelined: write everything, then read everything.
  BinaryClient client = fx.Connect();
  for (size_t i = 0; i < sparqls.size(); ++i) {
    QueryRequest request;
    request.sparql = sparqls[i];
    request.k = static_cast<uint32_t>(ks[i]);
    ASSERT_TRUE(client.SendQuery(request, 1000 + i).ok());
  }
  for (size_t i = 0; i < sparqls.size(); ++i) {
    auto reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, FrameType::kResult) << "response " << i;
    EXPECT_EQ(reply->request_id, 1000 + i) << "responses out of order";
    EXPECT_EQ(reply->payload, serial[i]) << "response " << i;
    EXPECT_EQ(reply->payload,
              DirectWireBytes(fx.env.engine(), sparqls[i], ks[i]))
        << "response " << i;
  }
}

TEST(BinaryServerTest, PipeliningDeterministicOneWorker) {
  RunPipeliningDeterminism(1);
}

TEST(BinaryServerTest, PipeliningDeterministicFourWorkers) {
  RunPipeliningDeterminism(4);
}

TEST(BinaryServerTest, ShedsWhenAdmissionQueueFull) {
  // max_queue = 0 admits nothing: every QUERY is deterministically
  // shed with the distinct SHED status, and the connection stays
  // healthy for non-query traffic.
  BinaryQueryServer::Options options;
  options.max_queue = 0;
  ServerFixture fx(options);
  BinaryClient client = fx.Connect();

  QueryRequest request;
  request.sparql = kQuerySparql;
  auto result = client.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->status, WireStatus::kShed);
  EXPECT_TRUE(result->answers.empty());

  EXPECT_EQ(fx.server->stats().shed, 1u);
  Counter* shed = fx.registry.GetCounter("sama_server_shed_total", "");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->Value(), 1u);
  // Sheds are backpressure, not errors.
  EXPECT_EQ(fx.server->stats().errors, 0u);
  EXPECT_TRUE(client.Ping("still alive").ok());
}

TEST(BinaryServerTest, FloodPastAdmissionBoundShedsWithoutProtocolErrors) {
  BinaryQueryServer::Options options;
  options.max_queue = 1;
  options.num_workers = 1;
  ServerFixture fx(options);
  BinaryClient client = fx.Connect();

  constexpr size_t kFlood = 32;
  for (size_t i = 0; i < kFlood; ++i) {
    QueryRequest request;
    request.sparql = kQuerySparql;
    ASSERT_TRUE(client.SendQuery(request, i).ok());
  }
  size_t ok = 0, shed = 0;
  for (size_t i = 0; i < kFlood; ++i) {
    auto reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->request_id, i) << "responses out of order";
    if (reply->type == FrameType::kResult) {
      QueryResultWire result;
      ASSERT_TRUE(DecodeQueryResult(reply->payload, &result));
      EXPECT_EQ(result.status, WireStatus::kOk);
      ++ok;
    } else {
      ASSERT_EQ(reply->type, FrameType::kError);
      ErrorBody error;
      ASSERT_TRUE(DecodeErrorBody(reply->payload, &error));
      EXPECT_EQ(error.code, WireStatus::kShed);
      ++shed;
    }
  }
  // Every request got exactly one well-formed response; at least the
  // first admitted query succeeded, and the shed counter matches what
  // came back on the wire.
  EXPECT_EQ(ok + shed, kFlood);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(fx.server->stats().shed, shed);
  EXPECT_EQ(fx.server->stats().queue_depth, 0u);
}

TEST(BinaryServerTest, ConnectionLimitRejectsExtraConnections) {
  BinaryQueryServer::Options options;
  options.max_connections = 2;
  ServerFixture fx(options);
  BinaryClient first = fx.Connect();
  BinaryClient second = fx.Connect();
  // Pings force the accepts to have happened before the third connect.
  ASSERT_TRUE(first.Ping("a").ok());
  ASSERT_TRUE(second.Ping("b").ok());

  BinaryClient third;
  ASSERT_TRUE(third.Connect(fx.server->host(), fx.server->port()).ok());
  // The server accepts and immediately closes: the first round trip
  // fails.
  auto echo = third.Ping("c");
  EXPECT_FALSE(echo.ok());
  EXPECT_GE(fx.server->stats().connections_rejected, 1u);
  // Existing connections are unaffected.
  EXPECT_TRUE(first.Ping("still fine").ok());
}

TEST(BinaryServerTest, MalformedFrameGetsErrorThenClose) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  ASSERT_TRUE(client.SendRaw("garbage that is not a frame at all").ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorBody error;
  ASSERT_TRUE(DecodeErrorBody(reply->payload, &error));
  EXPECT_EQ(error.code, WireStatus::kBadFrame);
  // The stream has no resync point; the server closes.
  EXPECT_FALSE(client.ReadFrame().ok());
  EXPECT_GE(fx.server->stats().errors, 1u);
}

TEST(BinaryServerTest, VersionMismatchGetsErrorThenClose) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  Frame frame;
  frame.type = FrameType::kPing;
  std::string wire = EncodeFrame(frame);
  wire[4] = 9;  // Unknown version.
  ASSERT_TRUE(client.SendRaw(wire).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorBody error;
  ASSERT_TRUE(DecodeErrorBody(reply->payload, &error));
  EXPECT_EQ(error.code, WireStatus::kVersionMismatch);
  EXPECT_FALSE(client.ReadFrame().ok());
}

TEST(BinaryServerTest, UnknownRequestTypeGetsErrorKeepsConnection) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  Frame frame;
  frame.type = FrameType::kResult;  // A response type, as a request.
  frame.request_id = 5;
  ASSERT_TRUE(client.SendFrame(frame).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->request_id, 5u);
  ErrorBody error;
  ASSERT_TRUE(DecodeErrorBody(reply->payload, &error));
  EXPECT_EQ(error.code, WireStatus::kUnknownType);
  // The frame itself was well-formed, so the connection survives.
  EXPECT_TRUE(client.Ping("ok").ok());
}

TEST(BinaryServerTest, UndecodableQueryPayloadGetsBadRequest) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.payload = "not a query payload";
  ASSERT_TRUE(client.SendFrame(frame).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorBody error;
  ASSERT_TRUE(DecodeErrorBody(reply->payload, &error));
  EXPECT_EQ(error.code, WireStatus::kBadRequest);
  EXPECT_TRUE(client.Ping("ok").ok());
}

TEST(BinaryServerTest, SparqlParseFailureGetsParseError) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  QueryRequest request;
  request.sparql = "this is not sparql";
  auto result = client.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->status, WireStatus::kParseError);
}

TEST(BinaryServerTest, RemoteShutdownAckedAndFlagged) {
  ServerFixture fx;
  EXPECT_FALSE(fx.server->shutdown_requested());
  BinaryClient client = fx.Connect();
  ASSERT_TRUE(client.Shutdown().ok());
  EXPECT_TRUE(
      fx.server->WaitForShutdown(std::chrono::milliseconds(5000)));
  EXPECT_TRUE(fx.server->shutdown_requested());
}

TEST(BinaryServerTest, RemoteShutdownCanBeDisabled) {
  BinaryQueryServer::Options options;
  options.allow_remote_shutdown = false;
  ServerFixture fx(options);
  BinaryClient client = fx.Connect();
  EXPECT_FALSE(client.Shutdown().ok());
  EXPECT_FALSE(fx.server->shutdown_requested());
  EXPECT_TRUE(client.Ping("still serving").ok());
}

TEST(BinaryServerTest, MetricsExportedThroughPrivateRegistry) {
  ServerFixture fx;
  BinaryClient client = fx.Connect();
  ASSERT_TRUE(client.Ping("x").ok());
  QueryRequest request;
  request.sparql = kQuerySparql;
  ASSERT_TRUE(client.Query(request).ok());

  Counter* pings = fx.registry.GetCounter("sama_server_requests_total", "",
                                          {{"type", "ping"}});
  Counter* queries = fx.registry.GetCounter("sama_server_requests_total",
                                            "", {{"type", "query"}});
  Counter* accepted = fx.registry.GetCounter(
      "sama_server_connections_accepted_total", "");
  ASSERT_NE(pings, nullptr);
  ASSERT_NE(queries, nullptr);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(pings->Value(), 1u);
  EXPECT_EQ(queries->Value(), 1u);
  EXPECT_EQ(accepted->Value(), 1u);

  Histogram* latency = fx.registry.GetHistogram(
      "sama_server_request_millis", "", Histogram::LatencyBucketsMillis());
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Count(), 1u);

  std::string text = fx.registry.RenderText();
  EXPECT_NE(text.find("sama_server_requests_total"), std::string::npos);
  EXPECT_NE(text.find("sama_server_shed_total"), std::string::npos);
  EXPECT_NE(text.find("sama_server_request_millis_bucket"),
            std::string::npos);
}

TEST(BinaryServerTest, TraceSpansRecordedPerRequest) {
  BinaryQueryServer::Options options;
  options.trace_requests = true;
  ServerFixture fx(options);
  BinaryClient client = fx.Connect();
  QueryRequest request;
  request.sparql = kQuerySparql;
  ASSERT_TRUE(client.Query(request).ok());

  // The server minted one trace id for the request.
  std::vector<std::string> ids = fx.server->trace_store().Ids();
  ASSERT_EQ(ids.size(), 1u);
  std::shared_ptr<QueryTrace> trace = fx.server->trace_store().Find(ids[0]);
  ASSERT_NE(trace, nullptr);
  std::vector<TraceSpan> spans = trace->Snapshot();
  std::vector<std::string> names;
  for (const auto& span : spans) names.push_back(span.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "request"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "queue"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "execute"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "encode"), names.end());
  for (const auto& span : spans) {
    EXPECT_GE(span.duration_millis, 0.0) << span.name << " left open";
  }

  Counter* recorded = fx.registry.GetCounter(
      "sama_server_request_spans_total", "");
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->Value(), spans.size());
}

TEST(BinaryServerTest, StopWithInFlightPipelinedRequestsIsClean) {
  // Teardown torture, run under TSan in CI: pipeline a burst of
  // queries at 4 workers and Stop without reading a single response.
  // Requires: no crash, no hang, no worker touching a dead socket.
  BinaryQueryServer::Options options;
  options.num_workers = 4;
  ServerFixture fx(options);
  BinaryClient client = fx.Connect();
  for (int i = 0; i < 16; ++i) {
    QueryRequest request;
    request.sparql = kQuerySparql;
    ASSERT_TRUE(client.SendQuery(request, i).ok());
  }
  fx.server->Stop();
  // The client's connection dies sooner or later; either a response
  // that was already in flight or an EOF is acceptable, but the server
  // side must already be fully drained by the time Stop returned.
  EXPECT_EQ(fx.server->stats().connections_active, 0u);
  EXPECT_EQ(fx.server->stats().queue_depth, 0u);
}

TEST(BinaryServerTest, StopIsIdempotentAndRestartable) {
  GovTrackEnv env;
  MetricsRegistry registry;
  BinaryQueryServer::Options options;
  options.port = 0;
  options.registry = &registry;
  BinaryQueryServer server(&env.engine(), options);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // Second stop is a no-op.
  ASSERT_TRUE(server.Start().ok());  // Fresh ephemeral port.
  BinaryClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  EXPECT_TRUE(client.Ping("back").ok());
  server.Stop();
}

}  // namespace
}  // namespace sama
