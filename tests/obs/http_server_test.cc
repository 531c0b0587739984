// ObsHttpServer: a raw-socket client (no HTTP library in the build, by
// design) exercises routing, query-param decoding, POST bodies, the
// 400/404/405-style error paths, ephemeral-port binding, and idempotent
// Stop. The server is deliberately minimal — serial connections,
// Connection: close — so these tests also pin that simplicity.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "common/net.h"
#include "obs/http_server.h"

namespace sama {
namespace {

// Sends `raw` to the server and returns the full response (the server
// closes the connection after one exchange, so read-to-EOF is exact).
std::string RawRequest(const ObsHttpServer& server, const std::string& raw) {
  int fd = -1;
  Status connected = ConnectTcp(server.host(), server.port(), &fd);
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(const ObsHttpServer& server, const std::string& target) {
  return RawRequest(server, "GET " + target +
                                " HTTP/1.1\r\nHost: test\r\n\r\n");
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.Handle("/ping", [](const HttpRequest&) {
      HttpResponse response;
      response.body = "pong\n";
      return response;
    });
    server_.Handle("/echo", [](const HttpRequest& request) {
      HttpResponse response;
      response.body = request.method + " " + request.path;
      for (const auto& [key, value] : request.params) {
        response.body += "\n" + key + "=" + value;
      }
      if (!request.body.empty()) response.body += "\nbody:" + request.body;
      return response;
    });
    server_.Handle("/teapot", [](const HttpRequest&) {
      HttpResponse response;
      response.status = 418;
      response.body = "short and stout\n";
      return response;
    });
    server_.Handle("/unavailable", [](const HttpRequest&) {
      return HttpResponse{503, "text/plain; charset=utf-8", "degraded\n"};
    });
    ASSERT_TRUE(server_.Start().ok());
    ASSERT_NE(server_.port(), 0) << "ephemeral port not resolved";
  }

  void TearDown() override { server_.Stop(); }

  // Default options: 127.0.0.1, port 0 (ephemeral).
  ObsHttpServer server_{ObsHttpServer::Options{}};
};

TEST_F(HttpServerTest, ServesRegisteredHandler) {
  std::string response = Get(server_, "/ping");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 5), "pong\n");
}

TEST_F(HttpServerTest, UnknownPathIs404) {
  EXPECT_EQ(Get(server_, "/nowhere").rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);
}

TEST_F(HttpServerTest, HandlerChoosesStatus) {
  EXPECT_EQ(Get(server_, "/teapot").rfind("HTTP/1.1 418", 0), 0u);
  EXPECT_EQ(Get(server_, "/unavailable")
                .rfind("HTTP/1.1 503 Service Unavailable\r\n", 0),
            0u);
}

TEST_F(HttpServerTest, QueryParamsAreSplitAndDecoded) {
  std::string response =
      Get(server_, "/echo?id=42&format=text&q=a%20b%2Bc+d");
  EXPECT_NE(response.find("GET /echo"), std::string::npos) << response;
  EXPECT_NE(response.find("id=42"), std::string::npos);
  EXPECT_NE(response.find("format=text"), std::string::npos);
  // %20 → space, %2B → '+', '+' → space.
  EXPECT_NE(response.find("q=a b+c d"), std::string::npos) << response;
}

TEST_F(HttpServerTest, PostBodyIsDeliveredByContentLength) {
  std::string body = "SELECT ?x WHERE { ?x :p ?y }";
  std::string raw = "POST /echo HTTP/1.1\r\nHost: test\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  std::string response = RawRequest(server_, raw);
  EXPECT_NE(response.find("POST /echo"), std::string::npos) << response;
  EXPECT_NE(response.find("body:" + body), std::string::npos);
}

TEST_F(HttpServerTest, OversizedBodyIsRejected) {
  // Claims 2 MiB (over the 1 MiB cap); the server answers 413 without
  // waiting for the body.
  std::string raw =
      "POST /echo HTTP/1.1\r\nHost: test\r\nContent-Length: 2097152\r\n\r\n";
  EXPECT_EQ(RawRequest(server_, raw).rfind("HTTP/1.1 413", 0), 0u);
}

TEST_F(HttpServerTest, GarbageRequestLineIs400) {
  // No METHOD/target/version triple to split on → unparseable.
  EXPECT_EQ(RawRequest(server_, "garbage\r\n\r\n").rfind("HTTP/1.1 400", 0),
            0u);
}

TEST_F(HttpServerTest, HeadOmitsTheBody) {
  std::string response =
      RawRequest(server_, "HEAD /ping HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(response.find("pong"), std::string::npos);
}

TEST_F(HttpServerTest, CountsRequestsAcrossSerialConnections) {
  uint64_t before = server_.requests_served();
  Get(server_, "/ping");
  Get(server_, "/nowhere");  // Errors count too — the connection was served.
  Get(server_, "/ping");
  EXPECT_EQ(server_.requests_served(), before + 3);
}

TEST_F(HttpServerTest, StopIsIdempotentAndAllowsRestart) {
  server_.Stop();
  server_.Stop();  // Second stop is a no-op.
  ASSERT_TRUE(server_.Start().ok());
  EXPECT_NE(Get(server_, "/ping").find("pong"), std::string::npos);
}

TEST(ObsHttpServerTest, StartFailsOnUnresolvableHost) {
  ObsHttpServer::Options options;
  options.host = "definitely not an address";
  ObsHttpServer server(options);
  EXPECT_FALSE(server.Start().ok());
}

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("%2Fdebug%2fprofile"), "/debug/profile");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  // Malformed escapes pass through literally rather than truncating.
  EXPECT_EQ(UrlDecode("bad%2"), "bad%2");
  EXPECT_EQ(UrlDecode("bad%zz"), "bad%zz");
  EXPECT_EQ(UrlDecode(""), "");
}

}  // namespace
}  // namespace sama
