#include "common/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sama {

Status BindListener(const ListenerOptions& options, int* fd,
                    uint16_t* bound_port) {
  *fd = -1;
  int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(sock, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(sock);
    return Status::InvalidArgument("bad listen host: " + options.host);
  }
  if (::bind(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IoError(std::string("bind ") + options.host + ":" +
                                std::to_string(options.port) + ": " +
                                std::strerror(errno));
    ::close(sock);
    return st;
  }
  if (::listen(sock, options.backlog) < 0) {
    Status st = Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(sock);
    return st;
  }
  if (options.nonblocking) {
    Status st = SetNonBlocking(sock);
    if (!st.ok()) {
      ::close(sock);
      return st;
    }
  }
  // Resolve the ephemeral port; fall back to the requested one if the
  // (unlikely) getsockname fails on a fixed-port bind.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(sock, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  } else {
    *bound_port = options.port;
  }
  *fd = sock;
  return Status::Ok();
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

Status ConnectTcp(const std::string& host, uint16_t port, int* fd) {
  *fd = -1;
  int sock = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(sock);
    return Status::InvalidArgument("unparseable host address: " + host);
  }
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int err = errno;
    ::close(sock);
    return Status::IoError("connect to " + host + ":" + std::to_string(port) +
                           " failed: " + std::strerror(err));
  }
  *fd = sock;
  return Status::Ok();
}

}  // namespace sama
