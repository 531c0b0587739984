#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace sama {
namespace {

// The thread's current span, per trace: a query's phase spans live on
// the caller thread while pool workers record chunk spans for the same
// trace, so the current-span slot must not leak across traces.
struct CurrentSpanSlot {
  const QueryTrace* trace = nullptr;
  uint64_t id = 0;
};
thread_local CurrentSpanSlot tls_current_span;

}  // namespace

double QueryTrace::NowMillis() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - anchor_)
      .count();
}

uint64_t QueryTrace::BeginSpan(std::string_view name, uint64_t parent) {
  const double start = NowMillis();
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t ordinal;
  auto it = thread_ordinals_.find(std::this_thread::get_id());
  if (it == thread_ordinals_.end()) {
    ordinal = static_cast<uint32_t>(thread_ordinals_.size());
    thread_ordinals_.emplace(std::this_thread::get_id(), ordinal);
  } else {
    ordinal = it->second;
  }
  TraceSpan span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::string(name);
  span.start_millis = start;
  span.duration_millis = -1.0;
  span.thread = ordinal;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void QueryTrace::EndSpan(uint64_t id) {
  const double end = NowMillis();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  TraceSpan& span = spans_[id - 1];
  if (span.duration_millis < 0) {
    span.duration_millis = end - span.start_millis;
    if (span.duration_millis < 0) span.duration_millis = 0;
  }
}

void QueryTrace::SetSpanAttr(uint64_t id, std::string_view key,
                             std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.emplace_back(std::string(key), std::string(value));
}

void QueryTrace::SetContext(const TraceContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  context_ = ctx;
}

TraceContext QueryTrace::context() const {
  std::lock_guard<std::mutex> lock(mu_);
  return context_;
}

std::vector<TraceSpan> QueryTrace::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t QueryTrace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string QueryTrace::ToJson() const {
  std::vector<TraceSpan> spans = Snapshot();
  const TraceContext ctx = context();
  // Snapshot preserves allocation order (== id order) already; keep the
  // sort so the contract survives internal changes.
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) { return a.id < b.id; });
  std::string out = "{";
  if (ctx.valid()) {
    out += "\"trace_id\":\"" + ctx.TraceIdHex() + "\",";
  }
  out += "\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (i) out.push_back(',');
    char buf[128];
    out += "{\"id\":";
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)s.id);
    out += buf;
    out += ",\"parent\":";
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)s.parent);
    out += buf;
    out += ",\"name\":\"";
    out += JsonEscape(s.name);
    out += "\",\"thread\":";
    std::snprintf(buf, sizeof(buf), "%u", s.thread);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"start_ms\":%.3f,\"dur_ms\":%.3f",
                  s.start_millis,
                  s.duration_millis < 0 ? 0.0 : s.duration_millis);
    out += buf;
    if (!s.attrs.empty()) {
      out += ",\"attrs\":{";
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        if (a) out.push_back(',');
        out.push_back('"');
        out += JsonEscape(s.attrs[a].first);
        out += "\":\"";
        out += JsonEscape(s.attrs[a].second);
        out.push_back('"');
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

void ObsSpan::Open(QueryTrace* trace, std::string_view name, uint64_t parent) {
  trace_ = trace;
  if (!trace_) return;
  id_ = trace_->BeginSpan(name, parent);
  if (tls_current_span.trace == trace_) {
    saved_current_ = tls_current_span.id;
  } else {
    tls_current_span.trace = trace_;
    saved_current_ = 0;
  }
  tls_current_span.id = id_;
}

ObsSpan::ObsSpan(QueryTrace* trace, std::string_view name) {
  Open(trace, name, CurrentId(trace));
}

ObsSpan::ObsSpan(QueryTrace* trace, std::string_view name, uint64_t parent_id) {
  Open(trace, name, parent_id);
}

void ObsSpan::Close() {
  if (!trace_) return;
  trace_->EndSpan(id_);
  if (tls_current_span.trace == trace_ && tls_current_span.id == id_) {
    tls_current_span.id = saved_current_;
    if (saved_current_ == 0) tls_current_span.trace = nullptr;
  }
  trace_ = nullptr;
  id_ = 0;
}

ObsSpan::~ObsSpan() { Close(); }

ObsSpan::ObsSpan(ObsSpan&& other) noexcept
    : trace_(other.trace_), id_(other.id_), saved_current_(other.saved_current_) {
  other.trace_ = nullptr;
  other.id_ = 0;
}

ObsSpan& ObsSpan::operator=(ObsSpan&& other) noexcept {
  if (this != &other) {
    Close();
    trace_ = other.trace_;
    id_ = other.id_;
    saved_current_ = other.saved_current_;
    other.trace_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void ObsSpan::SetAttr(std::string_view key, std::string_view value) {
  if (trace_) trace_->SetSpanAttr(id_, key, value);
}

uint64_t ObsSpan::CurrentId(const QueryTrace* trace) {
  if (trace && tls_current_span.trace == trace) return tls_current_span.id;
  return 0;
}

}  // namespace sama
