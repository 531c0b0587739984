#include "obs/slow_query_log.h"

#include <chrono>
#include <cstdio>

#include "common/string_util.h"

namespace sama {
namespace {

void AppendField(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, v);
  *out += buf;
}

void AppendField(std::string* out, const char* key, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key, (unsigned long long)v);
  *out += buf;
}

}  // namespace

SlowQueryLog::SlowQueryLog(Options options) : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (!options_.jsonl_path.empty() && options_.env == nullptr) {
    options_.env = Env::Default();
  }
  ring_.resize(options_.capacity);
}

void SlowQueryLog::Record(const SlowQueryRecord& record) {
  SlowQueryRecord stamped = record;
  if (stamped.unix_millis == 0) {
    // Wall clock deliberately: log lines are correlated with external
    // events, not used for duration arithmetic (those are steady-clock
    // measurements taken by the engine).
    stamped.unix_millis =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
  }

  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = stamped;
  next_ = (next_ + 1) % ring_.size();
  if (filled_ < ring_.size()) ++filled_;
  ++total_recorded_;

  if (!options_.jsonl_path.empty() && options_.env != nullptr) {
    std::string line = ToJsonLine(stamped);
    line.push_back('\n');
    std::vector<uint8_t> bytes(line.begin(), line.end());
    Status s = options_.env->AppendFileBytes(options_.jsonl_path, bytes);
    if (!s.ok()) {
      ++sink_failures_;
      last_sink_status_ = s;
    } else {
      last_sink_status_ = Status::Ok();
    }
  }
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlowQueryRecord> out;
  out.reserve(filled_);
  // Oldest record: slot next_ once the ring wrapped, slot 0 before.
  size_t start = (filled_ == ring_.size()) ? next_ : 0;
  for (size_t i = 0; i < filled_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

uint64_t SlowQueryLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_recorded_;
}

uint64_t SlowQueryLog::sink_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_failures_;
}

Status SlowQueryLog::last_sink_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_sink_status_;
}

std::string SlowQueryLog::ToJsonLine(const SlowQueryRecord& r) {
  std::string out = "{";
  AppendField(&out, "unix_ms", static_cast<uint64_t>(r.unix_millis));
  out += ",\"label\":\"";
  out += JsonEscape(r.label);
  out += "\",\"trace_id\":\"";
  out += JsonEscape(r.trace_id);
  out += "\",";
  AppendField(&out, "request_id", r.request_id);
  out.push_back(',');
  AppendField(&out, "total_ms", r.total_millis);
  out.push_back(',');
  AppendField(&out, "preprocess_ms", r.preprocess_millis);
  out.push_back(',');
  AppendField(&out, "clustering_ms", r.clustering_millis);
  out.push_back(',');
  AppendField(&out, "search_ms", r.search_millis);
  out.push_back(',');
  AppendField(&out, "query_paths", r.num_query_paths);
  out.push_back(',');
  AppendField(&out, "candidate_paths", r.num_candidate_paths);
  out.push_back(',');
  AppendField(&out, "answers", r.num_answers);
  out.push_back(',');
  AppendField(&out, "expansions", r.search_expansions);
  out += ",\"truncated\":";
  out += r.search_truncated ? "true" : "false";
  out.push_back(',');
  AppendField(&out, "corrupt_skipped", r.corrupt_records_skipped);
  out.push_back(',');
  AppendField(&out, "io_retries", r.io_retries);
  out.push_back(',');
  AppendField(&out, "threads", static_cast<uint64_t>(r.threads < 0 ? 0 : r.threads));
  out.push_back('}');
  return out;
}

}  // namespace sama
