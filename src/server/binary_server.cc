#include "server/binary_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/net.h"
#include "query/sparql.h"
#include "rdf/ntriples.h"

namespace sama {

QueryResultWire MakeQueryResultWire(const std::vector<Answer>& answers,
                                    const std::vector<std::string>& vars,
                                    bool truncated) {
  QueryResultWire wire;
  wire.status = WireStatus::kOk;
  wire.truncated = truncated;
  wire.answers.reserve(answers.size());
  for (const Answer& answer : answers) {
    WireAnswer wa;
    wa.score = answer.score;
    wa.lambda = answer.lambda_total;
    wa.psi = answer.psi_total;
    wa.consistent = answer.consistent;
    std::vector<Term> values = answer.BindingTuple(vars);
    wa.bindings.reserve(vars.size());
    for (size_t i = 0; i < vars.size(); ++i) {
      WireBinding binding;
      binding.var = vars[i];
      // Unbound variables come back as empty-string literals; encode
      // those as "" so clients can tell unbound from a bound empty
      // literal is not needed here (the engine never binds one).
      binding.value = values[i].value().empty() && values[i].is_literal()
                          ? std::string()
                          : values[i].ToString();
      wa.bindings.push_back(std::move(binding));
    }
    wire.answers.push_back(std::move(wa));
  }
  return wire;
}

namespace {

// The SELECT variables a result is projected onto: the query's own
// list, or (SELECT *) every distinct variable in pattern-appearance
// order — the same order for every execution of the same query text,
// which the byte-identical pipelining test relies on.
std::vector<std::string> SelectVars(const SparqlQuery& query) {
  if (!query.select_all) return query.select_vars;
  std::vector<std::string> vars;
  auto add = [&vars](const Term& term) {
    if (!term.is_variable()) return;
    for (const std::string& v : vars) {
      if (v == term.value()) return;
    }
    vars.push_back(term.value());
  };
  for (const Triple& pattern : query.patterns) {
    add(pattern.subject);
    add(pattern.predicate);
    add(pattern.object);
  }
  return vars;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

struct BinaryQueryServer::Instruments {
  Counter* requests_query;
  Counter* requests_update;
  Counter* requests_ping;
  Counter* requests_stats;
  Counter* requests_shutdown;
  Counter* requests_other;
  Counter* shed;
  Counter* errors;
  Counter* accepted;
  Counter* rejected;
  Counter* bytes_read;
  Counter* bytes_written;
  Counter* request_spans;
  Gauge* active;
  Gauge* queue_depth;
  Histogram* request_millis;
  Histogram* queue_wait_millis;

  static Instruments Resolve(MetricsRegistry* reg) {
    Instruments in;
    auto req = [reg](const char* type) {
      return reg->GetCounter("sama_server_requests_total",
                             "Request frames received by the binary server",
                             {{"type", type}});
    };
    in.requests_query = req("query");
    in.requests_update = req("update");
    in.requests_ping = req("ping");
    in.requests_stats = req("stats");
    in.requests_shutdown = req("shutdown");
    in.requests_other = req("other");
    in.shed = reg->GetCounter(
        "sama_server_shed_total",
        "Queries refused with SHED because the admission queue was full");
    in.errors = reg->GetCounter(
        "sama_server_errors_total",
        "Error frames sent for reasons other than load shedding");
    in.accepted = reg->GetCounter("sama_server_connections_accepted_total",
                                  "Connections accepted");
    in.rejected = reg->GetCounter(
        "sama_server_connections_rejected_total",
        "Connections closed at accept because the connection cap was hit");
    in.bytes_read = reg->GetCounter("sama_server_bytes_read_total",
                                    "Bytes read from client sockets");
    in.bytes_written = reg->GetCounter("sama_server_bytes_written_total",
                                       "Bytes written to client sockets");
    in.request_spans = reg->GetCounter(
        "sama_server_request_spans_total",
        "Per-request trace spans recorded (trace_requests only)");
    in.active = reg->GetGauge("sama_server_connections_active",
                              "Currently open client connections");
    in.queue_depth = reg->GetGauge(
        "sama_server_queue_depth", "Admitted-but-unfinished queries");
    in.request_millis = reg->GetHistogram(
        "sama_server_request_millis",
        "QUERY latency from admission to response staged, milliseconds",
        Histogram::LatencyBucketsMillis());
    in.queue_wait_millis = reg->GetHistogram(
        "sama_server_queue_wait_millis",
        "QUERY wait between admission and worker pickup, milliseconds",
        Histogram::LatencyBucketsMillis());
    return in;
  }
};

BinaryQueryServer::BinaryQueryServer(const SamaEngine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

BinaryQueryServer::~BinaryQueryServer() { Stop(); }

Status BinaryQueryServer::Start() {
  if (running_.load()) return Status::Ok();

  MetricsRegistry* reg = options_.registry != nullptr
                             ? options_.registry
                             : MetricsRegistry::Global();
  instruments_ =
      std::make_unique<Instruments>(Instruments::Resolve(reg));

  ListenerOptions listener;
  listener.host = options_.host;
  listener.port = options_.port;
  listener.backlog = 128;
  listener.nonblocking = true;
  Status bound = BindListener(listener, &listen_fd_, &port_);
  if (!bound.ok()) return bound;

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("epoll_create1 failed");
  }
  event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    close(epoll_fd_);
    close(listen_fd_);
    epoll_fd_ = listen_fd_ = -1;
    return Status::IoError("eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    close(event_fd_);
    close(epoll_fd_);
    close(listen_fd_);
    event_fd_ = epoll_fd_ = listen_fd_ = -1;
    return Status::IoError("epoll_ctl(listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    close(event_fd_);
    close(epoll_fd_);
    close(listen_fd_);
    event_fd_ = epoll_fd_ = listen_fd_ = -1;
    return Status::IoError("epoll_ctl(eventfd) failed");
  }

  stopping_.store(false);
  shutdown_requested_.store(false);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  running_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::Ok();
}

void BinaryQueryServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop closed every connection on its way out, so in-flight
  // worker tasks drained here find conn->closed and drop their
  // responses without touching any fd.
  pool_.reset();
  // The loop thread is gone, so no more updates can arrive; flush any
  // deferred-durability records it journalled. Best-effort — a failure
  // here has nobody left to report to (the engine seals itself and the
  // next open replays the WAL).
  if (engine_->updates_enabled()) {
    (void)engine_->FlushUpdates();
  }
  if (event_fd_ >= 0) close(event_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  event_fd_ = epoll_fd_ = listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.clear();
  }
  shutdown_cv_.notify_all();
}

bool BinaryQueryServer::WaitForShutdown(
    std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  auto done = [this] {
    return shutdown_requested_.load(std::memory_order_acquire) ||
           !running_.load(std::memory_order_acquire);
  };
  if (timeout.count() <= 0) {
    shutdown_cv_.wait(lock, done);
  } else if (!shutdown_cv_.wait_for(lock, timeout, done)) {
    return false;
  }
  return shutdown_requested_.load(std::memory_order_acquire);
}

BinaryQueryServer::Stats BinaryQueryServer::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_rejected = connections_rejected_.load();
  s.connections_active = connections_active_.load();
  s.requests = requests_.load();
  s.queries_ok = queries_ok_.load();
  s.queries_truncated = queries_truncated_.load();
  s.updates_ok = updates_ok_.load();
  s.shed = shed_.load();
  s.errors = errors_.load();
  s.queue_depth = queue_depth_.load();
  return s;
}

void BinaryQueryServer::WakeLoop() {
  uint64_t one = 1;
  ssize_t n = write(event_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN just means a wake is already pending.
}

void BinaryQueryServer::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == event_fd_) {
        uint64_t drained = 0;
        while (read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) ReadReady(conn);
      if (conns_.count(fd) && (events[i].events & EPOLLOUT)) {
        FlushConn(conn);
      }
    }
    // Worker completions staged since the last wait.
    std::deque<std::shared_ptr<Conn>> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (const auto& conn : dirty) {
      if (conn->fd >= 0 && conns_.count(conn->fd)) FlushConn(conn);
    }
  }
  for (auto& [fd, conn] : conns_) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
      conn->ready.clear();
    }
    close(fd);
    conn->fd = -1;
    connections_active_.fetch_sub(1);
  }
  conns_.clear();
  if (instruments_) instruments_->active->Set(0);
}

void BinaryQueryServer::AcceptReady() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (conns_.size() >= options_.max_connections) {
      // Over the cap: the kindest honest signal is an immediate close
      // (a frame could block on a socket the peer never reads).
      // Count before close: a peer can observe the EOF the instant
      // close() returns, and the stats it then reads must already
      // include the rejection.
      connections_rejected_.fetch_add(1);
      instruments_->rejected->Increment();
      close(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    conns_[fd] = conn;
    connections_accepted_.fetch_add(1);
    connections_active_.fetch_add(1);
    instruments_->accepted->Increment();
    instruments_->active->Set(
        static_cast<double>(connections_active_.load()));
  }
}

void BinaryQueryServer::ReadReady(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      instruments_->bytes_read->Increment(static_cast<uint64_t>(n));
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {  // Peer finished; everything it pipelined is moot.
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  while (!conn->want_close) {
    Frame frame;
    WireStatus code = WireStatus::kOk;
    std::string message;
    FrameDecoder::Next next = conn->decoder.Pop(&frame, &code, &message);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kBad) {
      // One error frame, then close: a framing error has no
      // resynchronisation point (see FrameDecoder).
      errors_.fetch_add(1);
      instruments_->errors->Increment();
      Complete(conn, conn->next_seq++, EncodeErrorFrame(0, code, message));
      conn->want_close = true;
      break;
    }
    HandleFrame(conn, std::move(frame), conn->next_seq++);
  }
  FlushConn(conn);
}

void BinaryQueryServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                                    Frame frame, uint64_t seq) {
  requests_.fetch_add(1);
  auto error = [&](WireStatus code, std::string_view message) {
    if (code != WireStatus::kShed) {
      errors_.fetch_add(1);
      instruments_->errors->Increment();
    }
    Complete(conn, seq, EncodeErrorFrame(frame.request_id, code, message));
  };
  switch (frame.type) {
    case FrameType::kPing: {
      instruments_->requests_ping->Increment();
      Frame pong;
      pong.type = FrameType::kPong;
      pong.request_id = frame.request_id;
      pong.payload = std::move(frame.payload);
      Complete(conn, seq, EncodeFrame(pong));
      return;
    }
    case FrameType::kStats: {
      instruments_->requests_stats->Increment();
      Frame reply;
      reply.type = FrameType::kStatsResult;
      reply.request_id = frame.request_id;
      reply.payload = RenderStats();
      Complete(conn, seq, EncodeFrame(reply));
      return;
    }
    case FrameType::kUpdate: {
      instruments_->requests_update->Increment();
      if (stopping_.load(std::memory_order_acquire)) {
        error(WireStatus::kShuttingDown, "server is draining");
        return;
      }
      if (!engine_->updates_enabled()) {
        error(WireStatus::kReadOnly,
              "server has no write path (serve without --updates)");
        return;
      }
      UpdateRequest request;
      if (!DecodeUpdateRequest(frame.payload, &request)) {
        error(WireStatus::kBadRequest, "undecodable update payload");
        return;
      }
      Result<Triple> triple = NTriplesParser::ParseLine(request.statement);
      if (!triple.ok()) {
        // ParseLine's NotFound (blank/comment line) is a bad request
        // too: an update must carry exactly one statement.
        error(WireStatus::kBadRequest, triple.status().ToString());
        return;
      }
      TripleUpdate update;
      update.op = request.op == UpdateRequest::kOpDelete
                      ? TripleUpdate::Op::kDelete
                      : TripleUpdate::Op::kInsert;
      update.triple = std::move(triple).value();
      update.durable =
          (request.flags & UpdateRequest::kFlagNonDurable) == 0;
      // The ordering contract (FrameType::kUpdate): every frame this
      // connection pipelined earlier was already popped, and none after
      // this one has been — but queries among the earlier frames may
      // still be in flight on workers, racing this update to the engine
      // lock. Wait until each of them has staged its reply (all seqs
      // below ours are flushed or ready) so the update provably
      // happens-after them. flushed_seq can't advance meanwhile
      // (FlushConn runs on this thread), so the predicate is stable.
      {
        std::unique_lock<std::mutex> lock(conn->mu);
        while (!conn->closed &&
               conn->flushed_seq + conn->ready.size() < seq &&
               !stopping_.load(std::memory_order_acquire)) {
          conn->cv.wait_for(lock, std::chrono::milliseconds(50));
        }
        if (conn->closed) return;
      }
      // A propagated trace context (or trace_requests) records this
      // update as request > wal.append / wal.fsync / wal.apply under
      // the SAME trace a sibling QUERY with that id lands in — the
      // whole point of the shared TraceStore.
      std::shared_ptr<QueryTrace> utrace;
      uint64_t uroot = 0;
      size_t spans_before = 0;
      TraceContext ctx = frame.trace;
      if (ctx.valid() || options_.trace_requests) {
        if (!ctx.valid()) ctx = TraceContext::Generate();
        utrace = trace_store_.GetOrCreate(ctx);
        spans_before = utrace->size();
        uroot = utrace->BeginSpan("request", ctx.parent_span);
        utrace->SetSpanAttr(uroot, "type", "update");
        utrace->SetSpanAttr(uroot, "request_id",
                            std::to_string(frame.request_id));
      }
      // Applied inline on the event-loop thread, which also gives
      // updates a cross-connection total order.
      Result<uint64_t> lsn =
          utrace != nullptr ? engine_->ApplyUpdate(update, utrace.get(), uroot)
                            : engine_->ApplyUpdate(update);
      if (utrace != nullptr) {
        utrace->EndSpan(uroot);
        instruments_->request_spans->Increment(utrace->size() - spans_before);
      }
      if (!lsn.ok()) {
        error(WireStatus::kInternal, lsn.status().ToString());
        return;
      }
      updates_ok_.fetch_add(1);
      UpdateResultWire result;
      result.status = WireStatus::kOk;
      result.lsn = *lsn;
      result.durable =
          update.durable && engine_->updates_durable() ? 1 : 0;
      Frame reply;
      reply.type = FrameType::kUpdateResult;
      reply.request_id = frame.request_id;
      reply.payload = EncodeUpdateResult(result);
      Complete(conn, seq, EncodeFrame(reply));
      return;
    }
    case FrameType::kShutdown: {
      instruments_->requests_shutdown->Increment();
      if (!options_.allow_remote_shutdown) {
        error(WireStatus::kBadRequest, "remote shutdown is disabled");
        return;
      }
      // Durability barrier: an acked update must survive the shutdown
      // this ack triggers, so deferred-durability records are fsynced
      // BEFORE the ack is staged. A failed flush is reported instead of
      // acked — durability is indeterminate and the client must know —
      // but the server still drains.
      if (engine_->updates_enabled()) {
        Status flushed = engine_->FlushUpdates();
        if (!flushed.ok()) {
          error(WireStatus::kInternal, flushed.ToString());
          {
            std::lock_guard<std::mutex> lock(shutdown_mu_);
            shutdown_requested_.store(true, std::memory_order_release);
          }
          shutdown_cv_.notify_all();
          return;
        }
      }
      Frame ack;
      ack.type = FrameType::kShutdownAck;
      ack.request_id = frame.request_id;
      Complete(conn, seq, EncodeFrame(ack));
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_.store(true, std::memory_order_release);
      }
      shutdown_cv_.notify_all();
      return;
    }
    case FrameType::kQuery: {
      instruments_->requests_query->Increment();
      if (stopping_.load(std::memory_order_acquire)) {
        error(WireStatus::kShuttingDown, "server is draining");
        return;
      }
      // Admission control: reserve a slot or shed. fetch_add keeps the
      // check race-free against concurrent completions.
      uint64_t depth = queue_depth_.fetch_add(1);
      if (depth >= options_.max_queue) {
        queue_depth_.fetch_sub(1);
        shed_.fetch_add(1);
        instruments_->shed->Increment();
        error(WireStatus::kShed, "admission queue full; retry with backoff");
        return;
      }
      instruments_->queue_depth->Set(static_cast<double>(depth + 1));
      auto admitted = std::chrono::steady_clock::now();
      uint64_t request_id = frame.request_id;
      TraceContext wire_ctx = frame.trace;
      std::string payload = std::move(frame.payload);
      pool_->Submit([this, conn, seq, request_id, wire_ctx,
                     payload = std::move(payload), admitted]() mutable {
        ExecuteQuery(conn, seq, request_id, std::move(payload), wire_ctx,
                     admitted);
      });
      return;
    }
    default:
      instruments_->requests_other->Increment();
      error(WireStatus::kUnknownType,
            "frame type " +
                std::to_string(static_cast<unsigned>(frame.type)) +
                " is not a request");
      return;
  }
}

void BinaryQueryServer::ExecuteQuery(
    const std::shared_ptr<Conn>& conn, uint64_t seq, uint64_t request_id,
    std::string payload, TraceContext wire_ctx,
    std::chrono::steady_clock::time_point admitted) {
  double queue_wait = MillisSince(admitted);
  instruments_->queue_wait_millis->Observe(queue_wait);

  // A wire context always traces (the client asked); otherwise
  // trace_requests decides and the server mints the id. Either way the
  // trace registers in trace_store_ under its id for /debug/trace.
  std::shared_ptr<QueryTrace> trace;
  uint64_t root = 0;
  size_t spans_before = 0;
  TraceContext ctx = wire_ctx;
  if (ctx.valid() || options_.trace_requests) {
    if (!ctx.valid()) ctx = TraceContext::Generate();
    trace = trace_store_.GetOrCreate(ctx);
    spans_before = trace->size();
    root = trace->BeginSpan("request", ctx.parent_span);
    trace->SetSpanAttr(root, "type", "query");
    trace->SetSpanAttr(root, "request_id", std::to_string(request_id));
    uint64_t queued = trace->BeginSpan("queue", root);
    trace->EndSpan(queued);
  }

  std::string wire;
  auto finish_error = [&](WireStatus code, const std::string& message) {
    errors_.fetch_add(1);
    instruments_->errors->Increment();
    wire = EncodeErrorFrame(request_id, code, message);
  };

  QueryRequest request;
  if (!DecodeQueryRequest(payload, &request)) {
    finish_error(WireStatus::kBadRequest, "undecodable query payload");
  } else {
    Result<SparqlQuery> parsed = ParseSparql(request.sparql);
    if (!parsed.ok()) {
      finish_error(WireStatus::kParseError, parsed.status().message());
    } else {
      uint32_t deadline_ms = request.deadline_ms != 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
      size_t k = request.k != 0 ? request.k : options_.default_k;

      uint64_t exec_span = 0;
      if (trace) exec_span = trace->BeginSpan("execute", root);
      QueryStats stats;
      QueryContext query_ctx;
      if (deadline_ms != 0) {
        query_ctx.deadline = admitted + std::chrono::milliseconds(deadline_ms);
      }
      query_ctx.request_id = request_id;
      if (trace != nullptr) {
        query_ctx.trace = trace;
        query_ctx.parent_span = exec_span;
        query_ctx.trace_context = ctx;
      }
      Result<std::vector<Answer>> answers =
          engine_->ExecuteSparql(*parsed, k, &stats, query_ctx);
      if (trace) trace->EndSpan(exec_span);

      if (!answers.ok()) {
        finish_error(WireStatus::kInternal, answers.status().ToString());
      } else {
        uint64_t encode_span = 0;
        if (trace) encode_span = trace->BeginSpan("encode", root);
        Frame reply;
        reply.type = FrameType::kResult;
        reply.request_id = request_id;
        reply.payload = EncodeQueryResult(MakeQueryResultWire(
            answers.value(), SelectVars(*parsed), stats.search_truncated));
        wire = EncodeFrame(reply);
        if (trace) trace->EndSpan(encode_span);
        if (stats.search_truncated) {
          queries_truncated_.fetch_add(1);
        } else {
          queries_ok_.fetch_add(1);
        }
      }
    }
  }

  if (trace) {
    trace->EndSpan(root);
    instruments_->request_spans->Increment(trace->size() - spans_before);
  }
  instruments_->request_millis->Observe(MillisSince(admitted));
  uint64_t depth = queue_depth_.fetch_sub(1);
  instruments_->queue_depth->Set(static_cast<double>(depth - 1));
  Complete(conn, seq, std::move(wire));
}

bool BinaryQueryServer::Complete(const std::shared_ptr<Conn>& conn,
                                 uint64_t seq, std::string wire) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return false;
    conn->ready.emplace(seq, std::move(wire));
    conn->cv.notify_all();  // An UPDATE may be waiting on this seq.
  }
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.push_back(conn);
  }
  WakeLoop();
  return true;
}

void BinaryQueryServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    // Responses leave strictly in request order: only the next
    // consecutive sequence may move to the write buffer.
    auto it = conn->ready.begin();
    while (it != conn->ready.end() && it->first == conn->flushed_seq) {
      conn->out.append(it->second);
      it = conn->ready.erase(it);
      ++conn->flushed_seq;
    }
  }
  size_t written = 0;
  while (written < conn->out.size()) {
    ssize_t n = write(conn->fd, conn->out.data() + written,
                      conn->out.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      instruments_->bytes_written->Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  conn->out.erase(0, written);
  bool drained;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    drained = conn->out.empty() && conn->ready.empty() &&
              conn->flushed_seq == conn->next_seq;
  }
  if (!conn->out.empty() && !conn->epollout) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout = true;
  } else if (conn->out.empty() && conn->epollout) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout = false;
  }
  if (conn->want_close && drained) CloseConn(conn);
}

void BinaryQueryServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->ready.clear();
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  connections_active_.fetch_sub(1);
  instruments_->active->Set(
      static_cast<double>(connections_active_.load()));
}

std::string BinaryQueryServer::RenderStats() const {
  Stats s = stats();
  std::ostringstream out;
  out << "connections_accepted " << s.connections_accepted << "\n"
      << "connections_rejected " << s.connections_rejected << "\n"
      << "connections_active " << s.connections_active << "\n"
      << "requests " << s.requests << "\n"
      << "queries_ok " << s.queries_ok << "\n"
      << "queries_truncated " << s.queries_truncated << "\n"
      << "updates_ok " << s.updates_ok << "\n"
      << "shed " << s.shed << "\n"
      << "errors " << s.errors << "\n"
      << "queue_depth " << s.queue_depth << "\n";
  return out.str();
}

}  // namespace sama
