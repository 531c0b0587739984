#include "obs/diagnostics.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/exporter.h"
#include "obs/trace.h"

namespace sama {
namespace {

// The value of query parameter `key`, or null when absent.
const std::string* Param(const HttpRequest& req, const char* key) {
  auto it = req.params.find(key);
  return it == req.params.end() ? nullptr : &it->second;
}

HttpResponse Json(std::string body, int status = 200) {
  HttpResponse r;
  r.status = status;
  r.content_type = "application/json";
  r.body = std::move(body);
  return r;
}

}  // namespace

Diagnostics::Diagnostics(const SlowQueryLog* slow, const ProfileLog* profiles,
                         const TraceStore* traces, SloOptions slo,
                         MetricsRegistry* registry)
    : slow_(slow),
      profiles_(profiles),
      traces_(traces),
      registry_(registry != nullptr ? registry : MetricsRegistry::Global()),
      ring_([this] {
        TimeSeriesRing::Options options;
        options.registry = registry_;
        return options;
      }()),
      slo_(slo, &ring_, registry_) {
  if (slo.enabled) {
    ring_.SetOnSample([this](const TimeSeriesRing&) { slo_.Evaluate(); });
  }
}

// The sampler calls into slo_, which is destroyed before ring_.
Diagnostics::~Diagnostics() { Stop(); }

void Diagnostics::Register(ObsHttpServer* server) {
  // Windowed routes read ?window=S, defaulting to the SLO window.
  auto window = [this](const HttpRequest& req) {
    const std::string* w = Param(req, "window");
    return w != nullptr ? std::strtod(w->c_str(), nullptr)
                        : slo_.options().window_seconds;
  };

  server->Handle("/healthz", [this](const HttpRequest& req) {
    HttpResponse r;
    r.body = "ok\n";
    if (!slo_.options().enabled) return r;
    slo_.Evaluate();
    const bool degraded = slo_.Snapshot().degraded;
    const std::string* verbose = Param(req, "verbose");
    if (verbose != nullptr && *verbose != "0") {
      r = Json(slo_.RenderJson());
    } else if (degraded) {
      r.body = "degraded\n";
    }
    if (degraded) r.status = 503;
    return r;
  });

  server->Handle("/metrics", [this](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = RenderMetricsScrape(registry_);
    return r;
  });

  server->Handle("/debug/queries", [this](const HttpRequest& req) {
    std::vector<SlowQueryRecord> records;
    if (slow_ != nullptr) records = slow_->Snapshot();
    // ?limit=N keeps the newest N rows — the ring is oldest-first, so a
    // bounded scrape still sees the most recent slow queries.
    size_t limit = records.size();
    if (const std::string* l = Param(req, "limit")) {
      limit = std::min<size_t>(limit, std::strtoul(l->c_str(), nullptr, 10));
    }
    std::string body = "{\"total\":" + std::to_string(records.size()) +
                       ",\"returned\":" + std::to_string(limit) +
                       ",\"queries\":[";
    for (size_t i = records.size() - limit; i < records.size(); ++i) {
      if (i != records.size() - limit) body += ",";
      body += "\n" + SlowQueryLog::ToJsonLine(records[i]);
    }
    return Json(body + "\n]}\n");
  });

  server->Handle("/debug/profile", [this](const HttpRequest& req) {
    std::shared_ptr<const QueryProfile> profile;
    if (profiles_ != nullptr) {
      const std::string* id = Param(req, "id");
      profile = id == nullptr
                    ? profiles_->Latest()
                    : profiles_->Get(std::strtoull(id->c_str(), nullptr, 10));
    }
    HttpResponse r;
    if (profile == nullptr) {
      r.status = 404;
      r.body = "no such profile\n";
    } else if (const std::string* format = Param(req, "format");
               format != nullptr && *format == "text") {
      r.body = RenderExplainAnalyze(*profile);
    } else {
      r = Json(RenderChromeTrace(*profile));
    }
    return r;
  });

  server->Handle("/debug/timeseries", [this, window](const HttpRequest& req) {
    const std::string* metric = Param(req, "metric");
    return Json(metric == nullptr ? ring_.RenderIndexJson()
                                  : ring_.RenderJson(*metric, window(req)));
  });

  server->Handle("/debug/top", [this, window](const HttpRequest& req) {
    return Json(ring_.RenderTopJson(window(req)));
  });

  server->Handle("/debug/trace", [this](const HttpRequest& req) {
    if (traces_ == nullptr) {
      return Json(
          "{\"error\":\"trace store only exists under serve --binary\"}\n",
          404);
    }
    const std::string* requested = Param(req, "id");
    if (requested == nullptr) {
      std::string body = "{\"traces\":[";
      std::vector<std::string> ids = traces_->Ids();
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i) body += ",";
        body += "\"" + ids[i] + "\"";
      }
      return Json(body + "]}\n");
    }
    // The store keys on the full 32-hex form: parse and re-render so
    // "?id=beef" finds "000...beef".
    std::string id = *requested;
    TraceContext parsed;
    if (TraceContext::ParseTraceId(id, &parsed)) id = parsed.TraceIdHex();
    std::shared_ptr<QueryTrace> trace = traces_->Find(id);
    if (trace == nullptr) {
      return Json("{\"error\":\"no such trace\",\"id\":\"" +
                      JsonEscape(*requested) + "\"}\n",
                  404);
    }
    const std::string* format = Param(req, "format");
    if (format != nullptr && *format == "raw") {
      return Json(trace->ToJson() + "\n");
    }
    // Perfetto/chrome://tracing loadable trace-event JSON.
    return Json(RenderSpansChromeTrace(trace->Snapshot(), id));
  });
}

}  // namespace sama
