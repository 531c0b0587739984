#ifndef SAMA_COMMON_NET_H_
#define SAMA_COMMON_NET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace sama {

// Shared POSIX socket setup for the embedded servers (ObsHttpServer
// and BinaryQueryServer) and their clients: socket + SO_REUSEADDR +
// bind + listen, with ephemeral-port resolution so `port = 0` callers
// learn the bound port, and the matching client-side connect.
// Centralised here so the servers and clients cannot drift on socket
// options or error reporting.
struct ListenerOptions {
  std::string host = "127.0.0.1";
  // 0 picks an ephemeral port; BindListener reports the bound one.
  uint16_t port = 0;
  int backlog = 64;
  // O_NONBLOCK on the listening socket — required by epoll-style
  // accept loops, harmless for blocking accept loops that tolerate
  // EAGAIN (the HTTP server keeps the default blocking accept).
  bool nonblocking = false;
};

// Creates, binds and listens. On success *fd is the listening socket
// and *bound_port the resolved port (equal to options.port when it was
// non-zero). On failure nothing is leaked and *fd is -1.
Status BindListener(const ListenerOptions& options, int* fd,
                    uint16_t* bound_port);

// Sets O_NONBLOCK on an arbitrary fd (accepted connections).
Status SetNonBlocking(int fd);

// Opens a blocking TCP connection to `host` (an IPv4 dotted quad) on
// `port`. On success *fd is the connected socket (close-on-exec); on
// failure nothing is leaked and *fd is -1.
Status ConnectTcp(const std::string& host, uint16_t port, int* fd);

}  // namespace sama

#endif  // SAMA_COMMON_NET_H_
