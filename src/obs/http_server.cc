#include "obs/http_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/net.h"
#include "common/string_util.h"

namespace sama {
namespace {

constexpr size_t kMaxHeadBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 1 * 1024 * 1024;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Reads until the header terminator (CRLFCRLF) is seen or the head cap
// is hit. Returns false on error/EOF-before-terminator; on success
// *head holds everything read so far (possibly including body bytes)
// and *head_end the terminator's end offset.
bool ReadHead(int fd, std::string* head, size_t* head_end) {
  char buf[4096];
  while (head->size() < kMaxHeadBytes) {
    size_t probe = head->size() < 3 ? 0 : head->size() - 3;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    head->append(buf, static_cast<size_t>(n));
    size_t pos = head->find("\r\n\r\n", probe);
    if (pos != std::string::npos) {
      *head_end = pos + 4;
      return true;
    }
  }
  return false;
}

// The value of header `name` (lowercase) in an HTTP head — the request
// or status line, then one header per line — trimmed; empty when
// absent.
std::string_view FindHeader(std::string_view head, std::string_view name) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    pos += 2;
    size_t eol = head.find("\r\n", pos);
    std::string_view line = head.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        ToLowerAscii(line.substr(0, colon)) == name) {
      return TrimWhitespace(line.substr(colon + 1));
    }
    pos = eol;
  }
  return {};
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

void ParseQueryParams(std::string_view query,
                      std::map<std::string, std::string>* params) {
  size_t start = 0;
  while (start <= query.size()) {
    size_t amp = query.find('&', start);
    std::string_view pair = query.substr(
        start, amp == std::string_view::npos ? query.size() - start
                                             : amp - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        (*params)[UrlDecode(pair)] = "";
      } else {
        (*params)[UrlDecode(pair.substr(0, eq))] =
            UrlDecode(pair.substr(eq + 1));
      }
    }
    if (amp == std::string_view::npos) break;
    start = amp + 1;
  }
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexVal(s[i + 1]) >= 0 &&
               HexVal(s[i + 2]) >= 0) {
      out.push_back(
          static_cast<char>(HexVal(s[i + 1]) * 16 + HexVal(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

ObsHttpServer::ObsHttpServer(Options options) : options_(std::move(options)) {}

ObsHttpServer::~ObsHttpServer() { Stop(); }

void ObsHttpServer::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status ObsHttpServer::Start() {
  if (running_.load()) return Status::Internal("server already started");
  // Socket setup shared with the binary query server (common/net.h):
  // SO_REUSEADDR, bind, listen, ephemeral-port resolution. This server
  // keeps the default blocking accept.
  ListenerOptions listener;
  listener.host = options_.host;
  listener.port = options_.port;
  listener.backlog = 16;
  int fd = -1;
  Status bound = BindListener(listener, &fd, &port_);
  if (!bound.ok()) return bound;
  listen_fd_.store(fd);
  running_.store(true);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ObsHttpServer::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // shutdown() makes the blocking accept() return so the loop can see
  // running_ == false; close() alone does not unblock it everywhere.
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) thread_.join();
}

void ObsHttpServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) break;
      continue;  // Transient accept failure; keep serving.
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void ObsHttpServer::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  HttpResponse resp;
  HttpRequest req;
  std::string raw;
  size_t head_end = 0;
  bool parsed = false;
  if (ReadHead(fd, &raw, &head_end)) {
    // Request line: METHOD SP target SP version.
    size_t line_end = raw.find("\r\n");
    std::string_view line(raw.data(), line_end);
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                               : line.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      req.method = std::string(line.substr(0, sp1));
      req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
      size_t qmark = req.target.find('?');
      req.path = req.target.substr(0, qmark);
      if (qmark != std::string::npos) {
        ParseQueryParams(std::string_view(req.target).substr(qmark + 1),
                         &req.params);
      }
      // The one header we honour: Content-Length, for POST bodies.
      size_t content_length = 0;
      for (char c : FindHeader(std::string_view(raw).substr(0, head_end),
                               "content-length")) {
        if (c < '0' || c > '9') break;
        content_length = content_length * 10 + (c - '0');
      }
      if (content_length > kMaxBodyBytes) {
        resp = {413, "text/plain; charset=utf-8", "payload too large\n"};
      } else {
        req.body = raw.substr(head_end);
        while (req.body.size() < content_length) {
          char buf[4096];
          ssize_t n = ::read(fd, buf, sizeof(buf));
          if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            break;
          }
          req.body.append(buf, static_cast<size_t>(n));
        }
        req.body.resize(std::min(req.body.size(), content_length));
        parsed = req.body.size() == content_length;
      }
    }
  }

  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (!parsed) {
    if (resp.status == 200) {
      resp = {400, "text/plain; charset=utf-8", "bad request\n"};
    }
  } else {
    auto it = handlers_.find(req.path);
    if (it == handlers_.end()) {
      resp = {404, "text/plain; charset=utf-8", "not found\n"};
    } else {
      resp = it->second(req);
    }
  }

  std::string wire = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     StatusText(resp.status) + "\r\n";
  wire += "Content-Type: " + resp.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  wire += "Connection: close\r\n\r\n";
  if (req.method != "HEAD") wire += resp.body;
  WriteAll(fd, wire);
  ::shutdown(fd, SHUT_WR);
  // Drain whatever the client still had in flight so close() does not
  // RST the connection under the response.
  char drain[1024];
  while (::read(fd, drain, sizeof(drain)) > 0) {
  }
}

Result<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                             const std::string& target) {
  int fd = -1;
  SAMA_RETURN_IF_ERROR(ConnectTcp(host, port, &fd));
  bool sent = WriteAll(fd, "GET " + target + " HTTP/1.1\r\nHost: " + host +
                               "\r\nConnection: close\r\n\r\n");
  std::string raw;
  char buf[8192];
  while (sent) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  if (!sent) return Status::IoError("write failed");
  // "HTTP/1.1 200 OK\r\n" headers "\r\n\r\n" body.
  size_t head_end = raw.find("\r\n\r\n");
  size_t space = raw.find(' ');
  if (head_end == std::string::npos || space > head_end) {
    return Status::IoError("malformed HTTP response");
  }
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + space + 1);
  response.content_type = std::string(
      FindHeader(std::string_view(raw).substr(0, head_end), "content-type"));
  response.body = raw.substr(head_end + 4);
  return response;
}

}  // namespace sama
