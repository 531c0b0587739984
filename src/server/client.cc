#include "server/client.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/net.h"

namespace sama {

BinaryClient::~BinaryClient() { Close(); }

BinaryClient::BinaryClient(BinaryClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      trace_(other.trace_) {}

BinaryClient& BinaryClient::operator=(BinaryClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    trace_ = other.trace_;
  }
  return *this;
}

Status BinaryClient::Connect(const std::string& host, uint16_t port) {
  Close();
  SAMA_RETURN_IF_ERROR(ConnectTcp(host, port, &fd_));
  decoder_ = FrameDecoder();
  return Status::Ok();
}

void BinaryClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

Status BinaryClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::IoError("client is not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IoError(std::string("write failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

Status BinaryClient::SendFrame(const Frame& frame) {
  if (trace_.valid() && !frame.trace.valid()) {
    Frame stamped = frame;
    stamped.trace = trace_;
    return SendRaw(EncodeFrame(stamped));
  }
  return SendRaw(EncodeFrame(frame));
}

Result<Frame> BinaryClient::ReadFrame() {
  if (fd_ < 0) return Status::IoError("client is not connected");
  while (true) {
    Frame frame;
    WireStatus code = WireStatus::kOk;
    std::string message;
    FrameDecoder::Next next = decoder_.Pop(&frame, &code, &message);
    if (next == FrameDecoder::Next::kFrame) return frame;
    if (next == FrameDecoder::Next::kBad) {
      return Status::Corruption("undecodable response stream: " + message);
    }
    char buf[16384];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) return Status::IoError("connection closed by server");
    if (errno == EINTR) continue;
    return Status::IoError(std::string("read failed: ") +
                           std::strerror(errno));
  }
}

Result<std::string> BinaryClient::Ping(std::string_view payload,
                                       uint64_t request_id) {
  Frame frame;
  frame.type = FrameType::kPing;
  frame.request_id = request_id;
  frame.payload.assign(payload);
  Status sent = SendFrame(frame);
  if (!sent.ok()) return sent;
  Result<Frame> reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply->type != FrameType::kPong) {
    return Status::Internal("expected PONG, got frame type " +
                            std::to_string(static_cast<unsigned>(reply->type)));
  }
  return std::move(reply->payload);
}

Result<std::string> BinaryClient::StatsText(uint64_t request_id) {
  Frame frame;
  frame.type = FrameType::kStats;
  frame.request_id = request_id;
  Status sent = SendFrame(frame);
  if (!sent.ok()) return sent;
  Result<Frame> reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply->type != FrameType::kStatsResult) {
    return Status::Internal("expected STATS_RESULT, got frame type " +
                            std::to_string(static_cast<unsigned>(reply->type)));
  }
  return std::move(reply->payload);
}

Status BinaryClient::SendQuery(const QueryRequest& request,
                               uint64_t request_id) {
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.request_id = request_id;
  frame.payload = EncodeQueryRequest(request);
  return SendFrame(frame);
}

Result<QueryResultWire> BinaryClient::Query(const QueryRequest& request,
                                            uint64_t request_id) {
  Status sent = SendQuery(request, request_id);
  if (!sent.ok()) return sent;
  Result<Frame> reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kError) {
    ErrorBody error;
    if (!DecodeErrorBody(reply->payload, &error)) {
      return Status::Corruption("undecodable error body");
    }
    QueryResultWire result;
    result.status = error.code;
    return result;
  }
  if (reply->type != FrameType::kResult) {
    return Status::Internal("expected RESULT, got frame type " +
                            std::to_string(static_cast<unsigned>(reply->type)));
  }
  QueryResultWire result;
  if (!DecodeQueryResult(reply->payload, &result)) {
    return Status::Corruption("undecodable query result");
  }
  return result;
}

Status BinaryClient::SendUpdate(const UpdateRequest& request,
                                uint64_t request_id) {
  Frame frame;
  frame.type = FrameType::kUpdate;
  frame.request_id = request_id;
  frame.payload = EncodeUpdateRequest(request);
  return SendFrame(frame);
}

Result<UpdateResultWire> BinaryClient::Update(const UpdateRequest& request,
                                              uint64_t request_id) {
  Status sent = SendUpdate(request, request_id);
  if (!sent.ok()) return sent;
  Result<Frame> reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kError) {
    ErrorBody error;
    if (!DecodeErrorBody(reply->payload, &error)) {
      return Status::Corruption("undecodable error body");
    }
    UpdateResultWire result;
    result.status = error.code;
    return result;
  }
  if (reply->type != FrameType::kUpdateResult) {
    return Status::Internal("expected UPDATE_RESULT, got frame type " +
                            std::to_string(static_cast<unsigned>(reply->type)));
  }
  UpdateResultWire result;
  if (!DecodeUpdateResult(reply->payload, &result)) {
    return Status::Corruption("undecodable update result");
  }
  return result;
}

Status BinaryClient::Shutdown(uint64_t request_id) {
  Frame frame;
  frame.type = FrameType::kShutdown;
  frame.request_id = request_id;
  Status sent = SendFrame(frame);
  if (!sent.ok()) return sent;
  Result<Frame> reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kError) {
    ErrorBody error;
    DecodeErrorBody(reply->payload, &error);
    return Status::InvalidArgument("shutdown refused: " + error.message);
  }
  if (reply->type != FrameType::kShutdownAck) {
    return Status::Internal("expected SHUTDOWN_ACK, got frame type " +
                            std::to_string(static_cast<unsigned>(reply->type)));
  }
  return Status::Ok();
}

}  // namespace sama
