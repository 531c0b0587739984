#ifndef SAMA_SERVER_BINARY_SERVER_H_
#define SAMA_SERVER_BINARY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "server/protocol.h"

namespace sama {

// Serialises engine answers into the wire result. Centralised so the
// server, the load generator and the determinism tests all produce
// answers through the one encoder — "byte-identical vs direct engine
// execution" compares EncodeQueryResult(MakeQueryResultWire(...)) of
// both sides.
QueryResultWire MakeQueryResultWire(const std::vector<Answer>& answers,
                                    const std::vector<std::string>& vars,
                                    bool truncated);

// The traffic-bearing front end (DESIGN.md "Serving"): an epoll event
// loop on one acceptor thread multiplexing every connection, plus a
// worker pool (the existing work-stealing ThreadPool) executing
// queries. The event loop owns all sockets; workers only ever touch a
// connection's completion buffer under its mutex and wake the loop
// through an eventfd, which keeps teardown with in-flight requests
// race-free (the TSan tier runs exactly that scenario).
//
// Request flow per connection:
//   read -> FrameDecoder -> sequence number assigned in arrival order
//     PING/STATS/SHUTDOWN  answered inline on the event loop
//     UPDATE               applied inline on the event loop (the engine
//                          update lock orders it against queries running
//                          on workers; see FrameType::kUpdate)
//     QUERY                admission check, then ThreadPool::Submit
//   responses are staged per sequence number and flushed strictly in
//   arrival order, so pipelined clients read answers in the order they
//   asked, regardless of worker interleaving.
//
// Admission control:
//   - max_connections: accepts past the cap are closed immediately.
//   - max_queue: QUERY frames admitted while admitted-but-unfinished
//     queries >= max_queue are answered with an ERROR frame carrying
//     WireStatus::kShed (sama_server_shed_total) — backpressure the
//     client can see, instead of unbounded queueing.
//   - deadlines: request deadline_ms (or the server default) becomes a
//     ForestSearchOptions::deadline; a deadline-truncated query is a
//     well-formed kResult with the truncated flag, never an error.
class BinaryQueryServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    // 0 picks an ephemeral port; port() reports the bound one.
    uint16_t port = 0;
    // Query-executing workers (>= 1). The event loop never executes
    // queries itself, so worker count bounds query concurrency.
    size_t num_workers = 1;
    // Accepted-connection cap; accepts beyond it are closed.
    size_t max_connections = 64;
    // Admitted-but-unfinished query cap; beyond it QUERYs are shed.
    size_t max_queue = 128;
    // k when the request leaves it 0.
    size_t default_k = 10;
    // Deadline applied when a request carries deadline_ms == 0;
    // 0 = none.
    uint32_t default_deadline_ms = 0;
    // Honour SHUTDOWN frames (acked, then shutdown_requested() flips;
    // the owner decides when to Stop). Off = kBadRequest.
    bool allow_remote_shutdown = true;
    // Record a per-request span trace (request > queue/execute/encode)
    // for every QUERY and UPDATE frame under a server-minted trace id,
    // kept in trace_store(). A frame carrying a trace context is always
    // collected there — even with this off — because the client
    // explicitly asked to be traced (DESIGN.md §15). Span count is
    // exported as sama_server_request_spans_total.
    bool trace_requests = false;
    // Registry for the sama_server_* instruments;
    // MetricsRegistry::Global() when null. Tests pass their own.
    MetricsRegistry* registry = nullptr;
  };

  // `engine` is borrowed and must outlive the server. UPDATE frames
  // need an engine with updates enabled and are answered kReadOnly
  // otherwise — always over a ShardedEngine, which has no write path.
  BinaryQueryServer(const SamaEngine* engine, Options options);
  ~BinaryQueryServer();

  BinaryQueryServer(const BinaryQueryServer&) = delete;
  BinaryQueryServer& operator=(const BinaryQueryServer&) = delete;

  // Binds (common/net.h listener utility), starts the worker pool and
  // the event-loop thread.
  Status Start();

  // Stops accepting, joins the event loop, drains the worker pool and
  // closes every connection. Safe to call twice; the destructor calls
  // it. In-flight queries finish executing (their responses are
  // dropped — the sockets are gone), so no worker ever touches a
  // dangling connection.
  void Stop();

  // The bound port (resolves port 0); valid after Start succeeds.
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  // Flipped by a SHUTDOWN frame. The owner (sama_cli serve, tests)
  // watches this and calls Stop.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  // Blocks until shutdown_requested() or the timeout (0 = forever).
  bool WaitForShutdown(std::chrono::milliseconds timeout =
                           std::chrono::milliseconds(0)) const;

  // Point-in-time counters, also exported as sama_server_* metrics and
  // over the STATS command.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;
    uint64_t connections_active = 0;
    uint64_t requests = 0;   // Every request frame, errors included.
    uint64_t queries_ok = 0;
    uint64_t queries_truncated = 0;
    uint64_t updates_ok = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;     // ERROR frames sent, sheds excluded.
    uint64_t queue_depth = 0;
  };
  Stats stats() const;

  // Request traces keyed by trace id, for /debug/trace?id=: the
  // propagated ones and, with trace_requests, the server-minted ones.
  // Keeps the most recent 256 ids; lives as long as the server; safe
  // to read concurrently with serving.
  const TraceStore& trace_store() const { return trace_store_; }

 private:
  // Per-connection state. The event loop owns fd/decoder/in-flight
  // bookkeeping; `mu` guards the fields workers touch (staged
  // responses and the closed flag).
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    uint64_t next_seq = 0;        // Next sequence to assign (loop only).
    bool want_close = false;      // Close once output drains (loop only).
    bool epollout = false;        // EPOLLOUT currently armed (loop only).
    std::string out;              // Wire bytes awaiting write (loop only).

    std::mutex mu;
    bool closed = false;                     // Loop sets on close.
    uint64_t flushed_seq = 0;                // Responses already staged.
    std::map<uint64_t, std::string> ready;   // seq -> encoded response.
    std::condition_variable cv;              // Signalled by Complete().
  };

  void EventLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame,
                   uint64_t seq);
  void ExecuteQuery(const std::shared_ptr<Conn>& conn, uint64_t seq,
                    uint64_t request_id, std::string payload,
                    TraceContext wire_ctx,
                    std::chrono::steady_clock::time_point admitted);
  // Stages `wire` as the response for `seq` and (worker context) wakes
  // the loop. Returns false when the connection is already closed.
  bool Complete(const std::shared_ptr<Conn>& conn, uint64_t seq,
                std::string wire);
  // Moves consecutive staged responses into the write buffer and
  // writes as much as the socket takes (event loop only).
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void WakeLoop();
  std::string RenderStats() const;

  const SamaEngine* engine_;
  Options options_;
  TraceStore trace_store_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  mutable std::mutex shutdown_mu_;
  mutable std::condition_variable shutdown_cv_;

  // Event-loop-owned connection table.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Connections with freshly staged responses (workers push, loop
  // drains after an eventfd wake).
  std::mutex dirty_mu_;
  std::deque<std::shared_ptr<Conn>> dirty_;

  // Admitted-but-unfinished queries (admission control).
  std::atomic<uint64_t> queue_depth_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_truncated_{0};
  std::atomic<uint64_t> updates_ok_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> errors_{0};

  // sama_server_* instruments, resolved once in Start.
  struct Instruments;
  std::unique_ptr<Instruments> instruments_;
};

}  // namespace sama

#endif  // SAMA_SERVER_BINARY_SERVER_H_
