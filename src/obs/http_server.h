#ifndef SAMA_OBS_HTTP_SERVER_H_
#define SAMA_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sama {

// One parsed request. `path` is the request target with the query
// string stripped; `params` holds the percent-decoded query
// parameters; `body` is present when the client sent Content-Length.
struct HttpRequest {
  std::string method;
  std::string target;  // Raw request target, e.g. "/debug/profile?id=3".
  std::string path;    // "/debug/profile"
  std::map<std::string, std::string> params;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// Minimal embedded HTTP/1.1 server backing `sama_cli serve`: a
// blocking accept loop over POSIX sockets on a background thread, one
// connection at a time, Connection: close on every response. This is a
// diagnostics endpoint for a scraper and a curl-wielding operator, not
// a web server — no keep-alive, no TLS, no chunked encoding, request
// heads capped at 64 KiB. Handlers are registered before Start and run
// on the server thread, so they must be thread-safe against the
// engine, which every registered handler is (they read snapshot-style
// APIs: MetricsRegistry::RenderText, SlowQueryLog::Snapshot,
// ProfileLog::Get).
class ObsHttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::string host = "127.0.0.1";
    // 0 picks an ephemeral port; port() reports the bound one.
    uint16_t port = 0;
  };

  explicit ObsHttpServer(Options options);
  ~ObsHttpServer();

  ObsHttpServer(const ObsHttpServer&) = delete;
  ObsHttpServer& operator=(const ObsHttpServer&) = delete;

  // Registers `handler` for exact-match `path` (query string excluded).
  // Must be called before Start.
  void Handle(std::string path, Handler handler);

  // Binds, listens, and launches the accept thread. Fails on bind
  // errors (port in use, bad host).
  Status Start();

  // Stops the accept loop and joins the thread. Safe to call twice.
  void Stop();

  // The bound port (resolves port 0); valid after Start succeeds.
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  // Requests served since Start, including 404s. For tests and the
  // sama_http_requests_total metric.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, Handler> handlers_;
  // Atomic: Stop() tears the fd down concurrently with the accept
  // loop's read of it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::thread thread_;
};

// One-shot GET of `target` from an ObsHttpServer-style endpoint
// (HTTP/1.1, Connection: close): the client behind `sama_cli top` and
// the diagnostics tests. Any status is an answer — a degraded
// /healthz's 503 comes back as a response; only a failed connect or a
// malformed reply is an error. The response carries the status code,
// the Content-Type header and the body.
Result<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                             const std::string& target);

// Percent-decodes `s` ("%2Fa+b" -> "/a b"). Invalid escapes pass
// through verbatim. Exposed for tests.
std::string UrlDecode(std::string_view s);

}  // namespace sama

#endif  // SAMA_OBS_HTTP_SERVER_H_
