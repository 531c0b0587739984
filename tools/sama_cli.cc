// sama_cli — load an RDF file, build the path index, and answer SPARQL
// queries approximately.
//
// Usage:
//   sama_cli --data graph.nt --query query.sparql [--k 10]
//   sama_cli --data graph.ttl --sparql 'SELECT ?x WHERE { ... }'
//   sama_cli --data graph.nt --interactive
//   sama_cli verify --index-dir DIR
//   sama_cli update --data graph.nt --index-dir DIR --apply updates.txt
//   sama_cli build --data graph.nt --index-dir DIR --shards 4
//   sama_cli serve --demo --port 8080
//
// Subcommands:
//   build              Partition the graph and build a sharded index
//                      under --index-dir: N per-shard PathIndex dirs
//                      plus the sharding sidecars (DESIGN.md §14).
//                      Querying that directory later (--index-dir
//                      pointing at it) automatically runs the sharded
//                      engine; answers are byte-identical to a
//                      single-index run. --shards 1 is a valid
//                      degenerate build.
//   verify             Scan a persisted index directory: checksum every
//                      page of every store, check the manifests and the
//                      commit record, and print a corruption report.
//                      WAL segments are scanned too (per-record CRCs,
//                      LSN continuity, checkpoint consistency).
//                      Exits non-zero if any damage is found.
//   update             Apply live triple updates to a persisted index.
//                      --data must name the ORIGINAL base file the index
//                      was built over (updates live in the WAL + index,
//                      never in the data file). Update lines come from
//                      --apply FILE (or stdin): one statement per line,
//                      '+' to insert, '-' to delete —
//                        + <s> <p> "o" .
//                        - <s> <p> "o" .
//                      '#' comments and blank lines are skipped. Every
//                      line is WAL-journalled before it is applied, and
//                      a checkpoint runs at the end, so a crash at any
//                      point loses nothing that was acked. --no-fsync
//                      defers per-line fsyncs to the final checkpoint
//                      (bulk loads); a torn tail is then possible but is
//                      truncated, never half-applied.
//   serve              Load the data, run an optional warmup query, and
//                      serve the diagnostics routes of
//                      src/obs/diagnostics.h (/metrics, the SLO-aware
//                      /healthz, /debug/{queries,profile,timeseries,
//                      top,trace}) plus POST /query (SPARQL body ->
//                      answers) over HTTP until killed. Profiling,
//                      metrics, the 1s telemetry sampler and the SLO
//                      tracker are always on under serve;
//                      --slow-query-ms defaults to 100 so /debug/queries
//                      has a live ring. `serve --binary` serves the
//                      framed binary protocol on --port instead, accepts
//                      a sharded --index-dir (read-only serving), and
//                      serves the same diagnostics routes when
//                      --http-port is given.
//   top                Live terminal view of a serving process: QPS,
//                      P50/P99, shed/error rates, cache hit ratio,
//                      epoch pins and WAL lag, polled from
//                      /debug/top every --interval seconds.
//
// Options:
//   --data FILE        N-Triples (.nt) or Turtle (.ttl) input (required).
//   --query FILE       File containing one SPARQL query.
//   --sparql TEXT      Inline SPARQL query.
//   --interactive      Read queries from stdin (terminate each with a
//                      blank line; EOF exits).
//   --k N              Number of answers (default 10).
//   --threads N        Threads for index building and query execution
//                      (default 1; 0 = all hardware threads). Answers
//                      are identical for every value.
//   --index-dir DIR    Persist the index under DIR (default: in-memory).
//                      A directory holding a `build --shards` output is
//                      detected and served by the sharded engine.
//   --shards N         `build`: number of shards to partition into.
//   --no-thesaurus     Disable semantic (synonym) matching.
//   --thesaurus FILE   Merge a user thesaurus ("syn:"/"isa:" lines)
//                      on top of the builtin vocabulary.
//   --export FILE      Write the loaded graph back out as N-Triples
//                      (.nt) or Turtle (.ttl) and exit.
//   --baseline NAME    Run a competitor instead of Sama:
//                      exact | sapper | bounded | dogma.
//   --strict-io        Fail queries on the first corrupt or unreadable
//                      record instead of skipping damaged candidates
//                      (the default degrades gracefully and reports the
//                      skip count under --stats).
//   --no-prune         Disable score-bounded forest-search pruning and
//                      run the exhaustive enumeration (ablation; the
//                      answers are identical, only slower).
//   --no-cache         Disable the query-side caches (candidate lists,
//                      path records, label matches, alignment memo).
//                      Answers are identical.
//   --stats            Print index and per-query statistics, including
//                      cache hit rates and the search pruning ratio.
//   --trace            Record a span trace per query and print it as a
//                      single `-- trace: {...}` JSON line.
//   --metrics          After the queries run, dump the process metrics
//                      registry in Prometheus text format to stdout.
//   --slow-query-ms N  Record queries slower than N ms in the slow-query
//                      log (printed after the run; see DESIGN.md
//                      "Observability").
//   --slow-query-log F Also append slow-query records to F as JSONL.
//   --explain          Print a postgres-style EXPLAIN ANALYZE tree per
//                      query (phase wall/self time, cache and page
//                      counters). Implies profiling.
//   --profile-out F    Write the last query's profile as Chrome
//                      trace-event JSON to F (open in Perfetto or
//                      chrome://tracing). Implies profiling.
//   --trace-id HEX     Stamp queries with this 1..32-hex-digit trace id
//                      (the trace JSON then carries it, and a server
//                      joins spans under it; see --trace-id on
//                      sama_client for the wire side).
//   --port N           Port for `serve` (default 8080; 0 = ephemeral).
//   --host ADDR        Listen address for `serve` (default 127.0.0.1).
//   --http-port N      `serve --binary`: also serve the diagnostics
//                      HTTP endpoints on this port (0 = ephemeral;
//                      omitted = no HTTP listener).
//   --interval S       `top`: refresh period in seconds (default 2).
//   --window S         `top` / SLO evaluation window (default 60).
//   --iterations N     `top`: stop after N refreshes (0 = forever).
//   --slo-latency-ms N     SLO: latency objective threshold (250).
//   --slo-latency-ratio R  SLO: allowed slow fraction (0.01).
//   --slo-error-ratio R    SLO: allowed error fraction (0.01).
//   --slo-shed-ratio R     SLO: allowed shed fraction (0.05).
//   --slo-burn R           SLO: degraded at burn rate >= R (1.0).
//   --no-slo               Disable SLO evaluation (healthz always ok).
//   --apply FILE       Update statements for `update` ("-" = stdin).
//   --no-fsync         `update`: defer fsyncs to the final checkpoint.
//   --updates          `serve --binary`: enable the UPDATE opcode
//                      (requires --index-dir; opens the WAL, replays
//                      anything a previous run left unapplied).
//   --checkpoint-every N  Checkpoint the index every N updates
//                      (default 1024; 0 = only at exit/shutdown).
//
// Flags accept both `--flag value` and `--flag=value`.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "baselines/bounded.h"
#include "baselines/dogma.h"
#include "baselines/exact.h"
#include "baselines/sapper.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "obs/diagnostics.h"
#include "obs/exporter.h"
#include "obs/http_server.h"
#include "obs/slo.h"
#include "server/binary_server.h"
#include "datasets/govtrack.h"
#include "graph/graph_stats.h"
#include "index/index_verify.h"
#include "index/path_index.h"
#include "query/sparql.h"
#include "graph/loader.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace {

struct CliOptions {
  std::string data_path;
  std::string query_path;
  std::string sparql;
  std::string index_dir;
  std::string baseline;
  std::string thesaurus_path;
  std::string export_path;
  size_t k = 10;
  size_t threads = 1;  // 0 = hardware concurrency.
  bool interactive = false;
  bool use_thesaurus = true;
  bool stats = false;
  bool demo = false;
  bool strict_io = false;
  bool verify = false;
  bool prune_search = true;
  bool use_cache = true;
  bool trace = false;
  bool metrics = false;
  double slow_query_ms = 0;
  std::string slow_query_log_path;
  bool explain = false;
  std::string profile_out;
  bool serve = false;
  size_t port = 8080;
  std::string host = "127.0.0.1";
  // serve --binary: the framed binary protocol instead of HTTP.
  bool binary = false;
  // serve --binary: co-hosted diagnostics HTTP port (-1 = none).
  long http_port = -1;
  // Propagated trace id (--trace-id), empty = none.
  std::string trace_id;
  // top subcommand.
  bool top = false;
  double top_interval = 2.0;
  double window_seconds = 60.0;
  size_t top_iterations = 0;  // 0 = until killed.
  // SLO objectives (serve).
  bool slo_enabled = true;
  double slo_latency_ms = 250.0;
  double slo_latency_ratio = 0.01;
  double slo_error_ratio = 0.01;
  double slo_shed_ratio = 0.05;
  double slo_burn = 1.0;
  size_t workers = 1;
  size_t max_conns = 64;
  size_t max_queue = 128;
  size_t deadline_ms = 0;  // Default per-query deadline; 0 = none.
  // build subcommand (sharded index).
  bool build = false;
  size_t shards = 0;
  // update subcommand / serve --updates.
  bool update = false;
  std::string apply_path;  // "" or "-" = stdin.
  bool fsync_updates = true;
  bool serve_updates = false;
  size_t checkpoint_every = 1024;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sama_cli --data FILE (--query FILE | --sparql TEXT |"
               " --interactive)\n"
               "               [--k N] [--threads N] [--index-dir DIR]"
               " [--no-thesaurus]\n"
               "               [--baseline exact|sapper|bounded|dogma]"
               " [--strict-io] [--no-prune]\n"
               "               [--no-cache] [--stats] [--trace]"
               " [--metrics]\n"
               "               [--slow-query-ms N] [--slow-query-log FILE]\n"
               "               [--explain] [--profile-out FILE]\n"
               "       sama_cli verify --index-dir DIR   (checksum an"
               " index + WAL, non-zero exit on damage)\n"
               "       sama_cli update --data FILE --index-dir DIR"
               " [--apply FILE] [--no-fsync]\n"
               "                       [--checkpoint-every N]   (apply"
               " '+'/'-' statement lines through the WAL)\n"
               "       sama_cli build --data FILE --index-dir DIR"
               " --shards N [--threads N]\n"
               "                      (partitioned sharded index; querying"
               " DIR later searches every shard)\n"
               "       sama_cli serve (--data FILE | --demo)"
               " [--port N] [--host ADDR]\n"
               "                      [--binary [--workers N] [--max-conns N]"
               " [--max-queue N]\n"
               "                       [--deadline-ms N] [--http-port N]]"
               "   (framed binary\n"
               "                      protocol; --http-port co-hosts the"
               " diagnostics endpoints)\n"
               "       sama_cli top [--host ADDR] [--port N] [--interval S]"
               " [--window S]\n"
               "                    [--iterations N]   (live QPS/P99/shed"
               " view of a serving process)\n"
               "       sama_cli --demo   (built-in Figure-1 walkthrough)\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "verify") == 0) {
    options->verify = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    options->serve = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "update") == 0) {
    options->update = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "build") == 0) {
    options->build = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "top") == 0) {
    options->top = true;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept --flag=value alongside --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&](std::string* out) {
      if (has_inline) {
        *out = inline_value;
        return true;
      }
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--data" && next(&value)) {
      options->data_path = value;
    } else if (arg == "--query" && next(&value)) {
      options->query_path = value;
    } else if (arg == "--sparql" && next(&value)) {
      options->sparql = value;
    } else if (arg == "--index-dir" && next(&value)) {
      options->index_dir = value;
    } else if (arg == "--baseline" && next(&value)) {
      options->baseline = value;
    } else if (arg == "--thesaurus" && next(&value)) {
      options->thesaurus_path = value;
    } else if (arg == "--export" && next(&value)) {
      options->export_path = value;
    } else if (arg == "--k" && next(&value)) {
      options->k = static_cast<size_t>(std::strtoul(value.c_str(),
                                                    nullptr, 10));
    } else if (arg == "--threads" && next(&value)) {
      options->threads = static_cast<size_t>(std::strtoul(value.c_str(),
                                                          nullptr, 10));
    } else if (arg == "--interactive") {
      options->interactive = true;
    } else if (arg == "--no-thesaurus") {
      options->use_thesaurus = false;
    } else if (arg == "--strict-io") {
      options->strict_io = true;
    } else if (arg == "--no-prune") {
      options->prune_search = false;
    } else if (arg == "--no-cache") {
      options->use_cache = false;
    } else if (arg == "--stats") {
      options->stats = true;
    } else if (arg == "--trace") {
      options->trace = true;
    } else if (arg == "--metrics") {
      options->metrics = true;
    } else if (arg == "--slow-query-ms" && next(&value)) {
      options->slow_query_ms = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--slow-query-log" && next(&value)) {
      options->slow_query_log_path = value;
    } else if (arg == "--explain") {
      options->explain = true;
    } else if (arg == "--profile-out" && next(&value)) {
      options->profile_out = value;
    } else if (arg == "--port" && next(&value)) {
      options->port = static_cast<size_t>(std::strtoul(value.c_str(),
                                                       nullptr, 10));
    } else if (arg == "--host" && next(&value)) {
      options->host = value;
    } else if (arg == "--http-port" && next(&value)) {
      options->http_port = std::strtol(value.c_str(), nullptr, 10);
    } else if (arg == "--trace-id" && next(&value)) {
      options->trace_id = value;
    } else if (arg == "--interval" && next(&value)) {
      options->top_interval = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--window" && next(&value)) {
      options->window_seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--iterations" && next(&value)) {
      options->top_iterations = static_cast<size_t>(
          std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--slo-latency-ms" && next(&value)) {
      options->slo_latency_ms = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--slo-latency-ratio" && next(&value)) {
      options->slo_latency_ratio = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--slo-error-ratio" && next(&value)) {
      options->slo_error_ratio = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--slo-shed-ratio" && next(&value)) {
      options->slo_shed_ratio = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--slo-burn" && next(&value)) {
      options->slo_burn = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--no-slo") {
      options->slo_enabled = false;
    } else if (arg == "--binary") {
      options->binary = true;
    } else if (arg == "--workers" && next(&value)) {
      options->workers = static_cast<size_t>(std::strtoul(value.c_str(),
                                                          nullptr, 10));
    } else if (arg == "--max-conns" && next(&value)) {
      options->max_conns = static_cast<size_t>(std::strtoul(value.c_str(),
                                                            nullptr, 10));
    } else if (arg == "--max-queue" && next(&value)) {
      options->max_queue = static_cast<size_t>(std::strtoul(value.c_str(),
                                                            nullptr, 10));
    } else if (arg == "--deadline-ms" && next(&value)) {
      options->deadline_ms = static_cast<size_t>(std::strtoul(value.c_str(),
                                                              nullptr, 10));
    } else if (arg == "--shards" && next(&value)) {
      options->shards = static_cast<size_t>(std::strtoul(value.c_str(),
                                                         nullptr, 10));
    } else if (arg == "--apply" && next(&value)) {
      options->apply_path = value;
    } else if (arg == "--no-fsync") {
      options->fsync_updates = false;
    } else if (arg == "--updates") {
      options->serve_updates = true;
    } else if (arg == "--checkpoint-every" && next(&value)) {
      options->checkpoint_every = static_cast<size_t>(
          std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--demo") {
      options->demo = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n",
                   arg.c_str());
      return false;
    }
  }
  if (options->top) {
    if (options->port > 65535) {
      std::fprintf(stderr, "--port must be in [0, 65535]\n");
      return false;
    }
    if (options->top_interval <= 0) options->top_interval = 2.0;
    if (options->window_seconds <= 0) options->window_seconds = 60.0;
    return true;
  }
  if (options->verify) {
    if (options->index_dir.empty()) {
      std::fprintf(stderr, "verify requires --index-dir\n");
      return false;
    }
    return true;
  }
  if (options->build) {
    if (options->index_dir.empty() || options->data_path.empty()) {
      std::fprintf(stderr, "build requires --data and --index-dir\n");
      return false;
    }
    if (options->shards == 0) {
      std::fprintf(stderr, "build requires --shards N (N >= 1)\n");
      return false;
    }
    return true;
  }
  if (options->update) {
    if (options->index_dir.empty()) {
      std::fprintf(stderr, "update requires --index-dir\n");
      return false;
    }
    if (options->data_path.empty()) {
      std::fprintf(stderr,
                   "update requires --data (the base file the index was "
                   "built over)\n");
      return false;
    }
    return true;
  }
  if (options->serve) {
    if (options->port > 65535) {
      std::fprintf(stderr, "--port must be in [0, 65535]\n");
      return false;
    }
    if (options->http_port > 65535) {
      std::fprintf(stderr, "--http-port must be in [0, 65535]\n");
      return false;
    }
    if (options->http_port >= 0 && !options->binary) {
      std::fprintf(stderr,
                   "--http-port applies to serve --binary (plain serve "
                   "already listens on --port)\n");
      return false;
    }
    if (!options->demo && options->data_path.empty()) {
      std::fprintf(stderr, "serve requires --data or --demo\n");
      return false;
    }
    if (options->serve_updates &&
        (options->index_dir.empty() || !options->binary)) {
      std::fprintf(stderr,
                   "--updates requires serve --binary with --index-dir "
                   "(the WAL lives in the index directory)\n");
      return false;
    }
    return true;
  }
  if (options->demo) return true;
  if (options->data_path.empty()) {
    std::fprintf(stderr, "--data is required\n");
    return false;
  }
  if (!options->export_path.empty()) return true;
  if (options->query_path.empty() && options->sparql.empty() &&
      !options->interactive) {
    std::fprintf(stderr,
                 "one of --query, --sparql or --interactive is required\n");
    return false;
  }
  return true;
}

sama::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return sama::Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- `sama_cli top`: poll /debug/top and redraw.

// Pulls `"key":<number>` out of a flat JSON object; NaN when absent.
double FindJsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

int RunTop(const CliOptions& options) {
  uint16_t port = static_cast<uint16_t>(options.port);
  const bool redraw = isatty(STDOUT_FILENO) != 0;
  char window_arg[64];
  std::snprintf(window_arg, sizeof(window_arg), "/debug/top?window=%g",
                options.window_seconds);
  for (size_t iter = 0;; ++iter) {
    auto top = sama::HttpGet(options.host, port, window_arg);
    if (!top.ok()) {
      std::fprintf(stderr, "top: %s\n", top.status().ToString().c_str());
      return 1;
    }
    // A degraded /healthz (503) still answers with its verdict.
    auto healthz = sama::HttpGet(options.host, port, "/healthz");
    const std::string health =
        healthz.ok() ? std::string(sama::TrimWhitespace(healthz->body))
                     : "unknown";
    const std::string& body = top->body;
    double qps = FindJsonNumber(body, "qps");
    double p50 = FindJsonNumber(body, "p50_ms");
    double p99 = FindJsonNumber(body, "p99_ms");
    double shed = FindJsonNumber(body, "shed_per_sec");
    double errors = FindJsonNumber(body, "error_per_sec");
    double shed_ratio = FindJsonNumber(body, "shed_ratio");
    double error_ratio = FindJsonNumber(body, "error_ratio");
    double cache = FindJsonNumber(body, "cache_hit_ratio");
    double pins = FindJsonNumber(body, "epoch_pins");
    double wal_lag = FindJsonNumber(body, "wal_unsynced_appends");
    double samples = FindJsonNumber(body, "samples");
    if (redraw && iter > 0) std::printf("\x1b[H\x1b[2J");
    std::printf("sama top — %s:%u  window %gs  samples %.0f  health %s\n",
                options.host.c_str(), static_cast<unsigned>(port),
                options.window_seconds, samples, health.c_str());
    std::printf("  qps %8.1f    p50 %8.2f ms    p99 %8.2f ms\n", qps, p50,
                p99);
    std::printf("  shed %6.1f/s (%5.2f%%)    errors %6.1f/s (%5.2f%%)\n",
                shed, 100.0 * shed_ratio, errors, 100.0 * error_ratio);
    std::printf("  cache hit %5.1f%%    epoch pins %.0f    "
                "wal unsynced %.0f\n",
                100.0 * cache, pins, wal_lag);
    std::fflush(stdout);
    if (options.top_iterations != 0 && iter + 1 >= options.top_iterations) {
      return 0;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.top_interval));
  }
}

sama::SloOptions MakeSloOptions(const CliOptions& options) {
  sama::SloOptions slo;
  slo.enabled = options.slo_enabled;
  slo.window_seconds = options.window_seconds;
  slo.burn_threshold = options.slo_burn;
  slo.latency_millis = options.slo_latency_ms;
  slo.latency_bad_ratio = options.slo_latency_ratio;
  slo.error_ratio = options.slo_error_ratio;
  slo.shed_ratio = options.slo_shed_ratio;
  return slo;
}

// POST /query under plain `serve`: a SPARQL body in, the ranked
// answers as JSON out.
sama::HttpResponse AnswerQuery(const sama::SamaEngine& engine, size_t k,
                               const sama::QueryContext& ctx,
                               const sama::HttpRequest& req) {
  sama::HttpResponse r;
  r.content_type = "application/json";
  if (req.method != "POST") {
    r.status = 405;
    r.body = "{\"error\":\"POST a SPARQL query as the body\"}\n";
    return r;
  }
  auto query = sama::ParseSparql(req.body);
  if (!query.ok()) {
    r.status = 400;
    r.body = "{\"error\":\"" + sama::JsonEscape(query.status().ToString()) +
             "\"}\n";
    return r;
  }
  sama::QueryStats stats;
  auto answers = engine.ExecuteSparql(*query, k, &stats, ctx);
  if (!answers.ok()) {
    r.status = 500;
    r.body = "{\"error\":\"" + sama::JsonEscape(answers.status().ToString()) +
             "\"}\n";
    return r;
  }
  char num[64];
  r.body = "{\"answers\":[";
  for (size_t i = 0; i < answers->size(); ++i) {
    const sama::Answer& a = (*answers)[i];
    if (i) r.body += ",";
    std::snprintf(num, sizeof(num), "%.4f", a.score);
    r.body += "\n{\"score\":";
    r.body += num;
    r.body += ",\"bindings\":{";
    for (size_t v = 0; v < query->select_vars.size(); ++v) {
      const std::string& var = query->select_vars[v];
      const sama::Term* bound = a.binding.Lookup(var);
      if (v) r.body += ",";
      r.body += "\"" + sama::JsonEscape(var) + "\":\"" +
                sama::JsonEscape(bound != nullptr ? bound->ToString() : "") +
                "\"";
    }
    r.body += "}}";
  }
  std::snprintf(num, sizeof(num), "%.3f", stats.total_millis);
  r.body += "\n],\"total_ms\":";
  r.body += num;
  if (stats.profile != nullptr) {
    r.body += ",\"profile_id\":" + std::to_string(stats.profile->id());
  }
  r.body += "}\n";
  return r;
}

// `serve`: the diagnostics routes on an HTTP listener, plus the framed
// binary protocol on --port under --binary. The listener takes --port
// under plain serve, where it also answers POST /query, and --http-port
// (optional) under --binary. Plain serve runs until killed; --binary
// until a SHUTDOWN frame drains the server, then checkpoints any
// updates. Returns the exit code.
int Serve(const CliOptions& options, const sama::SamaEngine& engine,
          const sama::QueryContext& query_ctx) {
  std::unique_ptr<sama::BinaryQueryServer> binary;
  if (options.binary) {
    sama::BinaryQueryServer::Options server_options;
    server_options.host = options.host;
    server_options.port = static_cast<uint16_t>(options.port);
    server_options.num_workers = options.workers;
    server_options.max_connections = options.max_conns;
    server_options.max_queue = options.max_queue;
    server_options.default_k = options.k;
    server_options.default_deadline_ms =
        static_cast<uint32_t>(options.deadline_ms);
    server_options.trace_requests = options.trace;
    binary = std::make_unique<sama::BinaryQueryServer>(&engine,
                                                       server_options);
  }
  // Declared between the two servers: it reads the binary server's
  // trace store, and the HTTP server's handlers read it.
  sama::Diagnostics diagnostics(
      engine.slow_query_log(), engine.profile_log(),
      binary != nullptr ? &binary->trace_store() : nullptr,
      MakeSloOptions(options));
  const long http_port =
      options.binary ? options.http_port : static_cast<long>(options.port);
  std::unique_ptr<sama::ObsHttpServer> http;
  if (http_port >= 0) {
    sama::ObsHttpServer::Options http_options;
    http_options.host = options.host;
    http_options.port = static_cast<uint16_t>(http_port);
    http = std::make_unique<sama::ObsHttpServer>(http_options);
    diagnostics.Register(http.get());
    if (binary == nullptr) {
      http->Handle("/query", [&engine, &options,
                              query_ctx](const sama::HttpRequest& req) {
        return AnswerQuery(engine, options.k, query_ctx, req);
      });
    }
  }
  diagnostics.Start();
  if (http != nullptr) {
    sama::Status started = http->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   binary != nullptr ? "diagnostics server" : "serve",
                   started.ToString().c_str());
      return 1;
    }
  }
  if (binary != nullptr) {
    sama::Status started = binary->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("serving binary protocol on %s:%u"
                " (workers=%zu max-conns=%zu max-queue=%zu deadline-ms=%zu"
                " updates=%s)\n",
                binary->host().c_str(),
                static_cast<unsigned>(binary->port()), options.workers,
                options.max_conns, options.max_queue, options.deadline_ms,
                engine.updates_enabled() ? "on" : "off");
  }
  if (http != nullptr && binary != nullptr) {
    std::printf("diagnostics on http://%s:%u — /metrics /healthz"
                " /debug/queries /debug/profile /debug/timeseries"
                " /debug/top /debug/trace\n",
                http->host().c_str(), static_cast<unsigned>(http->port()));
  } else if (http != nullptr) {
    std::printf("serving on http://%s:%u — endpoints: /metrics /healthz"
                " /debug/queries /debug/profile /debug/timeseries"
                " /debug/top /debug/trace, POST /query\n",
                http->host().c_str(), static_cast<unsigned>(http->port()));
  }
  std::fflush(stdout);
  if (binary == nullptr) {
    for (;;) pause();  // Until SIGINT/SIGTERM.
  }
  binary->WaitForShutdown();  // A SHUTDOWN frame ends the process.
  binary->Stop();             // Flushes journalled updates too.
  std::printf("shutdown requested; server drained\n");
  if (engine.updates_enabled()) {
    // Fold the WAL into the index so the next open skips replay.
    // Failure is not fatal: the flushed WAL already holds everything,
    // recovery just has more to do.
    sama::Status checkpointed = engine.CheckpointUpdates();
    if (!checkpointed.ok()) {
      std::fprintf(stderr,
                   "note: final checkpoint failed (%s); the WAL replays on "
                   "the next open\n",
                   checkpointed.ToString().c_str());
    }
  }
  return 0;
}

void PrintAnswer(const sama::DataGraph& graph, size_t rank,
                 const sama::Answer& answer,
                 const std::vector<std::string>& vars) {
  std::printf("#%zu  score=%.3f (lambda=%.3f psi=%.3f)%s\n", rank,
              answer.score, answer.lambda_total, answer.psi_total,
              answer.consistent ? "" : "  [relaxed bindings]");
  for (const std::string& var : vars) {
    const sama::Term* bound = answer.binding.Lookup(var);
    std::printf("    ?%s = %s\n", var.c_str(),
                bound != nullptr ? bound->ToString().c_str() : "(unbound)");
  }
  for (const sama::ScoredPath& part : answer.parts) {
    std::printf("    %s [%.2f]\n",
                part.path->ToString(graph.dict()).c_str(), part.lambda());
  }
}

int RunBaseline(const CliOptions& options, sama::DataGraph* graph,
                const sama::SparqlQuery& query) {
  std::unique_ptr<sama::Matcher> matcher;
  if (options.baseline == "exact") {
    matcher = std::make_unique<sama::ExactMatcher>(graph);
  } else if (options.baseline == "sapper") {
    matcher = std::make_unique<sama::SapperMatcher>(graph);
  } else if (options.baseline == "bounded") {
    matcher = std::make_unique<sama::BoundedMatcher>(graph);
  } else if (options.baseline == "dogma") {
    matcher = std::make_unique<sama::DogmaMatcher>(graph);
  } else {
    std::fprintf(stderr, "unknown baseline '%s'\n",
                 options.baseline.c_str());
    return 1;
  }
  sama::QueryGraph qg = query.ToQueryGraph(graph->shared_dict());
  auto matches = matcher->Execute(qg, options.k);
  if (!matches.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", matcher->name().c_str(),
                 matches.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu matches\n", matcher->name().c_str(),
              matches->size());
  for (size_t i = 0; i < matches->size(); ++i) {
    std::printf("#%zu  cost=%.2f\n", i + 1, (*matches)[i].cost);
    for (const std::string& var : query.select_vars) {
      const sama::Term* bound = (*matches)[i].binding.Lookup(var);
      std::printf("    ?%s = %s\n", var.c_str(),
                  bound != nullptr ? bound->ToString().c_str()
                                   : "(unbound)");
    }
  }
  return 0;
}

int RunOneQuery(const CliOptions& options, sama::DataGraph* graph,
                const sama::SamaEngine* engine, const std::string& sparql,
                const sama::QueryContext& ctx) {
  auto query = sama::ParseSparql(sparql);
  if (!query.ok()) {
    std::fprintf(stderr, "query parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  if (!options.baseline.empty()) {
    return RunBaseline(options, graph, *query);
  }
  sama::QueryStats stats;
  auto answers = engine->ExecuteSparql(*query, options.k, &stats, ctx);
  if (!answers.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 answers.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu answer(s)\n", answers->size());
  for (size_t i = 0; i < answers->size(); ++i) {
    PrintAnswer(*graph, i + 1, (*answers)[i], query->select_vars);
  }
  if (options.trace && stats.trace != nullptr) {
    std::printf("-- trace: %s\n", stats.trace->ToJson().c_str());
  }
  if (options.explain && stats.profile != nullptr) {
    std::printf("-- explain:\n%s",
                sama::RenderExplainAnalyze(*stats.profile).c_str());
  }
  if (!options.profile_out.empty() && stats.profile != nullptr) {
    std::ofstream out(options.profile_out,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.profile_out.c_str());
      return 1;
    }
    out << sama::RenderChromeTrace(*stats.profile);
    std::printf("-- profile written to %s\n", options.profile_out.c_str());
  }
  if (options.stats) {
    std::printf(
        "-- query stats: %zu query paths, %zu candidate paths, "
        "%.2f ms total (%.2f clustering, %.2f search)\n",
        stats.num_query_paths, stats.num_candidate_paths,
        stats.total_millis, stats.clustering_millis, stats.search_millis);
    if (stats.threads_used > 1) {
      std::printf(
          "-- parallel: %zu threads, speedup %.2fx clustering, "
          "%.2fx search\n",
          stats.threads_used, stats.ClusteringSpeedup(),
          stats.SearchSpeedup());
    }
    std::printf(
        "-- search: %llu expansion(s), %llu bound-pruned, "
        "%llu root(s) pruned (pruning ratio %.1f%%)%s\n",
        static_cast<unsigned long long>(stats.search_expansions),
        static_cast<unsigned long long>(stats.search_bound_pruned),
        static_cast<unsigned long long>(stats.search_roots_pruned),
        100.0 * stats.SearchPruningRatio(),
        stats.search_truncated ? ", TRUNCATED by the anytime budget" : "");
    auto print_cache = [](const char* name,
                          const sama::CacheCounters& counters) {
      if (counters.lookups() == 0) return;
      std::printf("-- cache %-12s %s\n", name,
                  counters.ToString().c_str());
    };
    print_cache("lookups:", stats.path_lookup_cache);
    print_cache("records:", stats.path_record_cache);
    print_cache("labels:", stats.label_match_cache);
    print_cache("alignments:", stats.alignment_memo);
    print_cache("thesaurus:", stats.thesaurus_cache);
    print_cache("tables:", stats.search_tables);
    if (stats.corrupt_records_skipped > 0 || stats.io_retries > 0) {
      std::printf(
          "-- degraded reads: %llu corrupt record(s) skipped, "
          "%llu transient retry(ies) — run `sama_cli verify` on the "
          "index directory\n",
          static_cast<unsigned long long>(stats.corrupt_records_skipped),
          static_cast<unsigned long long>(stats.io_retries));
    }
  }
  return 0;
}

// Opens the sharded index a `build --shards` run left in --index-dir.
// Returns 0, or the exit code to leave with.
int OpenShardedIndex(const CliOptions& options, sama::DataGraph* graph,
                     sama::ShardedIndex* index) {
  sama::Status opened =
      index->Open(graph, options.index_dir, /*strict=*/options.strict_io);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open sharded index %s: %s\n",
                 options.index_dir.c_str(), opened.ToString().c_str());
    return 1;
  }
  if (index->degraded_shards() > 0) {
    std::fprintf(stderr,
                 "note: %zu of %zu shard(s) damaged; answering from the "
                 "survivors (run `sama_cli verify` per shard dir)\n",
                 index->degraded_shards(), index->num_shards());
  }
  if (options.stats) {
    std::printf("-- sharded index: %zu shard(s), %llu paths, "
                "%llu cut edge(s)\n",
                index->num_shards(),
                static_cast<unsigned long long>(index->total_paths()),
                static_cast<unsigned long long>(index->cut_edges()));
  }
  return 0;
}

// Reuses the index persisted in --index-dir, or builds one (in memory
// without --index-dir). Returns 0, or the exit code to leave with.
int OpenOrBuildIndex(const CliOptions& options, sama::DataGraph* graph,
                     sama::PathIndex* index) {
  sama::PathIndexOptions index_options;
  index_options.dir = options.index_dir;
  index_options.num_threads = options.threads == 0
                                  ? sama::ThreadPool::HardwareThreads()
                                  : options.threads;
  bool reused = false;
  // Open() also clears a crashed build's leftovers. kNotFound is the
  // clean empty state (nothing committed), so the rebuild is silent;
  // anything else (corruption, version mismatch) is worth a note.
  if (!options.index_dir.empty()) {
    sama::Status opened = index->Open(graph, index_options);
    if (opened.ok()) {
      reused = true;
      if (options.stats) {
        std::printf("-- reusing persisted index in %s\n",
                    options.index_dir.c_str());
      }
    } else if (opened.code() != sama::Status::Code::kNotFound) {
      std::fprintf(stderr,
                   "note: could not reuse index in %s (%s); rebuilding\n",
                   options.index_dir.c_str(),
                   opened.ToString().c_str());
    }
  }
  if (!reused) {
    sama::Status built = index->Build(*graph, index_options);
    if (!built.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
  }
  if (options.stats) {
    const sama::IndexStats& s = index->stats();
    std::printf(
        "-- index: %llu triples, %llu paths, |HV|=%llu, |HE|=%llu, "
        "built in %s, %s on disk\n",
        static_cast<unsigned long long>(s.num_triples),
        static_cast<unsigned long long>(s.num_paths),
        static_cast<unsigned long long>(s.hv),
        static_cast<unsigned long long>(s.he),
        sama::HumanMillis(s.build_millis).c_str(),
        sama::HumanBytes(s.disk_bytes).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }

  if (options.top) return RunTop(options);

  // A propagated trace identity (--trace-id) forces tracing on and is
  // passed with every query the run executes, so client-side output
  // and server-side /debug/trace agree on the id.
  sama::QueryContext query_ctx;
  if (!options.trace_id.empty()) {
    if (!sama::TraceContext::ParseTraceId(options.trace_id,
                                          &query_ctx.trace_context)) {
      std::fprintf(stderr,
                   "invalid --trace-id '%s' (want 1..32 hex digits, "
                   "nonzero)\n",
                   options.trace_id.c_str());
      return 2;
    }
    options.trace = true;
  }

  if (options.verify) {
    auto report = sama::VerifyIndexDir(options.index_dir);
    if (!report.ok()) {
      std::fprintf(stderr, "verify failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    std::printf("%s", report->ToString().c_str());
    return report->clean() ? 0 : 1;
  }

  sama::DataGraph graph;
  if (options.demo) {
    graph = sama::DataGraph::FromTriples(sama::GovTrackFigure1Triples());
    if (options.sparql.empty() && options.query_path.empty() &&
        !options.interactive) {
      options.sparql =
          "PREFIX gov: <http://gov.example.org/>\n"
          "SELECT ?v1 ?v2 ?v3 WHERE {\n"
          "  gov:CarlaBunes gov:sponsor ?v1 . ?v1 gov:aTo ?v2 .\n"
          "  ?v2 gov:subject \"Health Care\" . ?v3 gov:sponsor ?v2 .\n"
          "  ?v3 gov:gender \"Male\" }";
    }
  } else {
    // Stream the file in constant memory, reporting progress on large
    // inputs.
    auto loaded = sama::LoadGraphFromFile(
        options.data_path, &graph,
        options.stats
            ? [](const sama::LoadStats& p) {
                std::fprintf(stderr, "-- loaded %llu triples...\r",
                             static_cast<unsigned long long>(p.triples));
              }
            : std::function<void(const sama::LoadStats&)>());
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n",
                   options.data_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (options.stats) {
      std::printf("-- loaded %llu triples in %.0f ms\n",
                  static_cast<unsigned long long>(loaded->triples),
                  loaded->millis);
    }
  }
  if (options.stats) {
    std::printf("-- graph:\n%s",
                sama::FormatGraphStats(sama::ComputeGraphStats(graph))
                    .c_str());
  }
  if (!options.export_path.empty()) {
    // Re-serialise the loaded graph and exit.
    std::vector<sama::Triple> triples;
    for (sama::EdgeId e = 0; e < graph.edge_count(); ++e) {
      const sama::DataGraph::Edge& edge = graph.edge(e);
      triples.push_back(sama::Triple{graph.node_term(edge.from),
                                     graph.edge_term(e),
                                     graph.node_term(edge.to)});
    }
    std::string text = sama::EndsWith(options.export_path, ".ttl")
                           ? sama::WriteTurtle(triples)
                           : sama::WriteNTriples(triples);
    std::ofstream out(options.export_path,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.export_path.c_str());
      return 1;
    }
    out << text;
    std::printf("exported %zu triples to %s\n", triples.size(),
                options.export_path.c_str());
    return 0;
  }

  if (options.build) {
    sama::ShardedIndexOptions shard_options;
    shard_options.num_shards = options.shards;
    shard_options.num_threads = options.threads == 0
                                    ? sama::ThreadPool::HardwareThreads()
                                    : options.threads;
    sama::ShardBuildReport report;
    sama::Status built = sama::BuildShardedIndex(graph, options.index_dir,
                                                 shard_options, &report);
    if (!built.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    std::printf("built %zu shard(s) in %s: %llu paths, "
                "%zu partition component(s), %llu cut edge(s)\n",
                report.num_shards, options.index_dir.c_str(),
                static_cast<unsigned long long>(report.total_paths),
                report.num_components,
                static_cast<unsigned long long>(report.cut_edges));
    for (size_t s = 0; s < report.shard_paths.size(); ++s) {
      std::printf("  shard-%04zu: %llu path(s)\n", s,
                  static_cast<unsigned long long>(report.shard_paths[s]));
    }
    return 0;
  }

  // A directory produced by `build --shards` answers through a
  // ShardedEngine; only opening the index differs from the single-index
  // path. Binary serving works over shards (read-only — UPDATE frames
  // are refused with kReadOnly); plain-HTTP serving and live updates
  // remain single-index features.
  const bool sharded = !options.index_dir.empty() &&
                       sama::IsShardedIndexDir(options.index_dir);
  if (sharded && ((options.serve && !options.binary) || options.update)) {
    std::fprintf(stderr,
                 "%s is a sharded index; plain `serve` and `update` "
                 "require a single-index directory (rebuild without "
                 "--shards, or use `serve --binary`)\n",
                 options.index_dir.c_str());
    return 2;
  }
  if (sharded && options.serve && options.serve_updates) {
    std::fprintf(stderr,
                 "--updates is not available over a sharded index "
                 "(sharded serving is read-only)\n");
    return 2;
  }
  sama::ShardedIndex sharded_index;
  sama::PathIndex index;
  int opened = sharded ? OpenShardedIndex(options, &graph, &sharded_index)
                       : OpenOrBuildIndex(options, &graph, &index);
  if (opened != 0) return opened;

  sama::Thesaurus thesaurus = sama::Thesaurus::BuiltinEnglish();
  if (!options.thesaurus_path.empty()) {
    sama::Status loaded = thesaurus.LoadFromFile(options.thesaurus_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load thesaurus: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
  }
  sama::EngineOptions engine_options;
  engine_options.num_threads = options.threads;
  engine_options.clustering.strict_io = options.strict_io;
  engine_options.params.prune_search = options.prune_search;
  engine_options.cache.enabled = options.use_cache;
  engine_options.obs.trace = options.trace;
  engine_options.obs.slow_query_millis = options.slow_query_ms;
  engine_options.obs.slow_query_path = options.slow_query_log_path;
  engine_options.obs.profile =
      options.explain || !options.profile_out.empty() || options.serve;
  if (options.serve && options.slow_query_ms <= 0) {
    // /debug/queries needs a live ring; 100ms is a serving-friendly
    // default the operator can still override.
    engine_options.obs.slow_query_millis = 100;
  }
  const sama::Thesaurus* engine_thesaurus =
      options.use_thesaurus ? &thesaurus : nullptr;
  // ShardedEngine adds only a constructor, so the sliced copy is the
  // whole engine.
  sama::SamaEngine engine =
      sharded ? sama::ShardedEngine(&graph, &sharded_index, engine_thesaurus,
                                    engine_options)
              : sama::SamaEngine(&graph, &index, engine_thesaurus,
                                 engine_options);

  // Post-run observability dumps, shared by the batch and interactive
  // paths.
  auto dump_obs = [&]() {
    const sama::SlowQueryLog* slow = engine.slow_query_log();
    if (slow != nullptr) {
      auto records = slow->Snapshot();
      std::printf("-- slow queries (>= %.1f ms): %llu recorded\n",
                  options.slow_query_ms,
                  static_cast<unsigned long long>(slow->total_recorded()));
      for (const auto& r : records) {
        std::printf("-- slow: %s\n",
                    sama::SlowQueryLog::ToJsonLine(r).c_str());
      }
      if (slow->sink_failures() > 0) {
        std::fprintf(stderr,
                     "note: %llu slow-query sink write(s) failed (%s)\n",
                     static_cast<unsigned long long>(slow->sink_failures()),
                     slow->last_sink_status().ToString().c_str());
      }
    }
    if (options.metrics) {
      std::printf(
          "-- metrics:\n%s",
          sama::RenderMetricsScrape(sama::MetricsRegistry::Global()).c_str());
    }
  };

  if (options.update || options.serve_updates) {
    sama::UpdateOptions update_options;
    update_options.checkpoint_every = options.checkpoint_every;
    update_options.durable = options.fsync_updates;
    sama::Status enabled = engine.EnableUpdates(&graph, &index,
                                                update_options);
    if (!enabled.ok()) {
      std::fprintf(stderr, "cannot enable updates: %s\n",
                   enabled.ToString().c_str());
      return 1;
    }
  }

  if (options.update) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (!options.apply_path.empty() && options.apply_path != "-") {
      file.open(options.apply_path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n",
                     options.apply_path.c_str());
        return 1;
      }
      in = &file;
    }
    unsigned long long inserts = 0, deletes = 0, line_no = 0;
    std::string line;
    while (std::getline(*in, line)) {
      ++line_no;
      size_t at = line.find_first_not_of(" \t");
      if (at == std::string::npos || line[at] == '#') continue;
      char op = line[at];
      if (op != '+' && op != '-') {
        std::fprintf(stderr,
                     "line %llu: expected '+ <statement> .' or "
                     "'- <statement> .'\n",
                     line_no);
        return 1;
      }
      auto triple = sama::NTriplesParser::ParseLine(line.substr(at + 1));
      if (!triple.ok()) {
        std::fprintf(stderr, "line %llu: %s\n", line_no,
                     triple.status().ToString().c_str());
        return 1;
      }
      auto lsn = op == '+' ? engine.InsertTriple(*triple)
                           : engine.DeleteTriple(*triple);
      if (!lsn.ok()) {
        // Everything acked so far is journalled; the next open replays
        // it. Report the failing line and stop.
        std::fprintf(stderr, "line %llu: update failed: %s\n", line_no,
                     lsn.status().ToString().c_str());
        return 1;
      }
      op == '+' ? ++inserts : ++deletes;
    }
    sama::Status checkpointed = engine.CheckpointUpdates();
    if (!checkpointed.ok()) {
      std::fprintf(stderr,
                   "checkpoint failed: %s (every applied update is still "
                   "in the WAL and replays on the next open)\n",
                   checkpointed.ToString().c_str());
      return 1;
    }
    std::printf("applied %llu insert(s), %llu delete(s); "
                "checkpoint at lsn %llu\n",
                inserts, deletes,
                static_cast<unsigned long long>(engine.last_update_lsn()));
    return 0;
  }

  if (options.serve) {
    // Warmup query (the --sparql/--query text, or the demo default)
    // so /debug/profile and /metrics have content from the start.
    std::string warmup = options.sparql;
    if (!options.query_path.empty()) {
      auto text = ReadFile(options.query_path);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 1;
      }
      warmup = *text;
    }
    if (!warmup.empty()) {
      RunOneQuery(options, &graph, &engine, warmup, query_ctx);
    }
    int rc = Serve(options, engine, query_ctx);
    if (rc == 0) dump_obs();
    return rc;
  }

  if (options.interactive) {
    std::printf("Enter SPARQL queries, blank line to run, EOF to quit.\n");
    std::string buffer, line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) {
        buffer += line;
        buffer += '\n';
        continue;
      }
      if (buffer.empty()) continue;
      RunOneQuery(options, &graph, &engine, buffer, query_ctx);
      buffer.clear();
    }
    if (!buffer.empty()) {
      RunOneQuery(options, &graph, &engine, buffer, query_ctx);
    }
    dump_obs();
    return 0;
  }

  std::string sparql = options.sparql;
  if (!options.query_path.empty()) {
    auto text = ReadFile(options.query_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    sparql = *text;
  }
  int rc = RunOneQuery(options, &graph, &engine, sparql, query_ctx);
  dump_obs();
  return rc;
}
