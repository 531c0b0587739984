// The served-LUBM benchmark. LUBM top-k SPARQL is served over the
// binary protocol by an in-process BinaryQueryServer and driven from
// this process by closed-loop query connections (each waits for its
// reply before sending the next request) and, on rw, one fixed-rate
// writer connection. Every response is verified byte for byte against
// a direct engine call on the same build. README.md records why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
//   servebench --workload light|heavy|shard4|rw --seed N --seconds S
//              --trace 0|1 --tmp-dir DIR --out-dir DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones of one timed phase of S seconds. With
// --trace 1 they are the per-layer ones: the run times an untraced
// phase and a traced phase of S/2 seconds each, and reports the layers
// from the traced one.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "core/engine.h"
#include "datasets/lubm.h"
#include "datasets/queries.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "query/sparql.h"
#include "server/binary_server.h"
#include "server/client.h"
#include "server/protocol.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"
#include "trace_report.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using sama::Status;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Fixed parameters shared by every workload.
constexpr size_t kAnswers = 5;          // k of every query.
constexpr double kZipfS = 1.1;          // Mix popularity skew.
constexpr size_t kMixBlock = 100;       // Requests per exact-proportion block.
constexpr size_t kListBlocks = 200;     // Blocks per connection list.
// rw writer updates per second. The server applies an update on its
// event loop, which waits there for in-flight reads to drain; at 10/s it
// was blocked most of the time, and 4-11% host steal moved rw's
// query_p50_ms from 17-20 ms to 23-74 ms (README.md, "Measurement
// choices").
constexpr double kUpdateRate = 5;
constexpr uint64_t kCheckpointEvery = 16;  // Six checkpoints in 20 s.
constexpr size_t kWriterPool = 4;       // Distinct triples the writer toggles.
// The update tail quantile on rw. The read-only builds' update probes
// ride on queries, so there it is the workload's query tail quantile.
constexpr double kUpdateTail = 0.80;
constexpr size_t kPerfettoSpans = 20000;
constexpr int kCodecBatches = 5;
constexpr int kCodecCalls = 200;
// Host CPU steal gate (README.md): the timed phase is cut into windows
// (Workload::steal_window_s), and the end-to-end metrics count the
// windows in which the hypervisor took at most kMaxSteal of the CPUs,
// or, when those cover less than kMinKeptShare of the phase, that share
// of the least-stolen windows.
constexpr double kMaxSteal = 0.01;
constexpr double kMinKeptShare = 0.6;

// One traffic mix over one served configuration. README.md says why
// each exists; the regime numbers there were measured with these
// settings.
struct Workload {
  std::string name;
  size_t universities;  // LUBM scale: 1 = 387 triples, 50 = 19,289.
  bool on_disk;
  size_t shards;        // 0 = one PathIndex.
  std::vector<std::string> queries;
  size_t query_connections;
  size_t server_workers;
  size_t engine_threads;
  // EnableUpdates and a durable writer in the timed phase. Without it
  // the server has no write path, and the query connections probe it
  // with update frames it refuses (QueryLoop).
  bool writable;
  double tail;          // Quantile reported as query_tail_ms.
  size_t setup_reps;    // Set-ups per run; setup_s is their median.
  // Steal-gate window. A request is gated by the window it completes in,
  // so a window must hold most of a request; shorter ones pick the clean
  // moments out of bursty steal more finely.
  double steal_window_s;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"light", 1, false, 0, {"Q1", "Q2", "Q3", "Q4", "Q5"}, 4, 4, 1, false,
       0.99, 101, 0.1},
      {"heavy", 1, false, 0, {"Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12"}, 1,
       1, 4, false, 0.90, 101, 0.5},
      {"shard4", 1, true, 4, {"Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12"}, 1,
       1, 4, false, 0.75, 61, 0.5},
      {"rw", 50, true, 0, {"Q1", "Q2", "Q3", "Q4", "Q5"}, 3, 4, 1, true, 0.95,
       11, 0.5},
  };
  return kAll;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares, in its order.
const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"query_qps", "1/s"},     {"query_p50_ms", "ms"},
      {"query_tail_ms", "ms"},  {"update_p50_ms", "ms"},
      {"update_tail_ms", "ms"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"server.wire_ms", "ms"},
      {"server.queue_wait_ms", "ms"},
      {"server.overhead_ms", "ms"},
      {"server.encode_us", "us"},
      {"server.decode_us", "us"},
      {"server.bytes_per_response", "bytes"},
      {"query.parse_us", "us"},
      {"core.preprocess_ms", "ms"},
      {"core.cluster_ms", "ms"},
      {"core.candidates", "count"},
      {"cache.alignment_hit_ratio", "ratio"},
      {"core.search_ms", "ms"},
      {"core.search_expansions", "count"},
      {"core.search_ns_per_expansion", "ns"},
      {"core.search_parallel_speedup", "ratio"},
      {"core.search_pruned_ratio", "ratio"},
      {"core.search_truncated_share", "ratio"},
      {"cache.posting_hit_ratio", "ratio"},
      {"cache.thesaurus_hit_ratio", "ratio"},
      {"cache.record_hit_ratio", "ratio"},
      {"cache.lookup_hit_ratio", "ratio"},
      {"setup.index_build_s", "s"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pool_misses", "count"},
      {"storage.bytes_read", "bytes"},
      {"storage.pin_retries", "count"},
      {"update.lock_wait_ms", "ms"},
      {"wal.append_ms", "ms"},
      {"wal.fsync_ms", "ms"},
      {"wal.apply_ms", "ms"},
      {"wal.checkpoint_ms", "ms"},
      {"wal.checkpoints", "count"},
      {"wal.fsyncs_per_update", "count"},
      {"wal.bytes_per_update", "bytes"},
      {"wal.replay_ms", "ms"},
      {"update.writer_lag_ms", "ms"},
      {"shard.scatter_ms", "ms"},
      {"shard.search_ms", "ms"},
      {"shard.merge_ms", "ms"},
      {"shard.expansions", "count"},
      {"setup.graph_s", "s"},
      {"setup.index_open_s", "s"},
      {"setup.engine_s", "s"},
      {"setup.updates_s", "s"},
      {"setup.server_start_s", "s"},
      {"mem.setup_rss_mb", "MB"},
      {"obs.trace_overhead", "ratio"},
  };
  return kDefs;
}

// ---- Seeded inputs, all generated before any clock starts.

struct MixQuery {
  std::string name;
  sama::SparqlQuery parsed;
  sama::QueryRequest request;
  double weight = 0;
  // The payload a conforming server returns in the base state, and (rw)
  // with each writer-pool triple inserted.
  std::string base_payload;
  std::vector<std::string> state_payloads;
};

struct Inputs {
  std::vector<sama::Triple> triples;
  std::vector<MixQuery> mix;
  std::vector<std::vector<uint32_t>> request_lists;  // Per query connection.
  std::vector<sama::Triple> writer_pool;
  std::vector<uint32_t> writer_pairs;  // Pool index per insert/delete pair.
};

uint64_t Stream(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

// One connection's request list: blocks of kMixBlock requests holding
// each query in its exact Zipf share (largest remainder), each block
// shuffled by the seed. The seed fixes the order; the shares do not
// depend on it.
std::vector<uint32_t> RequestList(const std::vector<double>& weights,
                                  uint64_t seed, uint64_t stream) {
  std::vector<size_t> counts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t used = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    double exact = weights[i] * kMixBlock;
    counts[i] = static_cast<size_t>(exact);
    used += counts[i];
    remainders.emplace_back(exact - counts[i], i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t r = 0; used < kMixBlock; ++r, ++used) {
    ++counts[remainders[r % remainders.size()].second];
  }
  std::vector<uint32_t> block;
  for (size_t i = 0; i < counts.size(); ++i) {
    block.insert(block.end(), counts[i], static_cast<uint32_t>(i));
  }
  sama::Random rng(Stream(seed, stream));
  std::vector<uint32_t> list;
  list.reserve(kMixBlock * kListBlocks);
  for (size_t b = 0; b < kListBlocks; ++b) {
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Uniform(i)]);
    }
    list.insert(list.end(), block.begin(), block.end());
  }
  return list;
}

// Triples absent from the base data whose subject is a student and
// whose object is a course (takesCourse) or a professor (advisor):
// exactly the edges Q4 and Q5 join over.
std::vector<sama::Triple> WriterPool(const std::vector<sama::Triple>& base,
                                     uint64_t seed) {
  const std::string ns = sama::kLubmNamespace;
  const sama::Term takes = sama::Term::Iri(ns + "takesCourse");
  const sama::Term advisor = sama::Term::Iri(ns + "advisor");
  std::vector<sama::Term> students, courses, professors;
  std::set<std::string> present;
  std::set<std::string> seen_s, seen_c, seen_p;
  for (const sama::Triple& t : base) {
    present.insert(t.ToString());
    if (t.predicate == takes) {
      if (seen_s.insert(t.subject.ToString()).second) {
        students.push_back(t.subject);
      }
      if (seen_c.insert(t.object.ToString()).second) {
        courses.push_back(t.object);
      }
    } else if (t.predicate == advisor &&
               seen_p.insert(t.object.ToString()).second) {
      professors.push_back(t.object);
    }
  }
  sama::Random rng(Stream(seed, 1000));
  std::vector<sama::Triple> pool;
  while (pool.size() < kWriterPool) {
    bool course_edge = pool.size() % 2 == 0;
    const std::vector<sama::Term>& objects =
        course_edge ? courses : professors;
    sama::Triple t{students[rng.Uniform(students.size())],
                   course_edge ? takes : advisor,
                   objects[rng.Uniform(objects.size())]};
    if (present.insert(t.ToString()).second) pool.push_back(t);
  }
  return pool;
}

size_t UpdatesFor(double seconds) {
  size_t pairs = static_cast<size_t>(std::llround(kUpdateRate * seconds / 2));
  return 2 * std::max<size_t>(1, pairs);
}

Inputs MakeInputs(const Workload& w, uint64_t seed, double seconds) {
  Inputs in;
  sama::LubmConfig config;
  config.universities = w.universities;
  in.triples = sama::GenerateLubm(config);

  std::vector<sama::BenchmarkQuery> catalogue = sama::MakeLubmQueries();
  std::vector<std::string> names;
  for (const std::string& name : w.queries) {
    for (const sama::BenchmarkQuery& q : catalogue) {
      if (q.name != name) continue;
      MixQuery m;
      m.name = name;
      auto parsed = sama::ParseSparql(q.sparql);
      if (!parsed.ok()) {
        std::fprintf(stderr, "query %s does not parse: %s\n", name.c_str(),
                     parsed.status().ToString().c_str());
        std::exit(1);
      }
      m.parsed = std::move(parsed).value();
      m.request.sparql = q.sparql;
      m.request.k = kAnswers;
      in.mix.push_back(std::move(m));
      names.push_back(name);
    }
  }
  std::vector<double> weights = sama::ZipfWeights(names, kZipfS);
  for (size_t i = 0; i < in.mix.size(); ++i) in.mix[i].weight = weights[i];
  for (size_t c = 0; c < w.query_connections; ++c) {
    in.request_lists.push_back(RequestList(weights, seed, c));
  }

  in.writer_pool = WriterPool(in.triples, seed);
  sama::Random rng(Stream(seed, 2000));
  std::vector<uint32_t> cycle(in.writer_pool.size());
  for (size_t i = 0; i < cycle.size(); ++i) cycle[i] = static_cast<uint32_t>(i);
  while (in.writer_pairs.size() < UpdatesFor(seconds) / 2) {
    for (size_t i = cycle.size(); i > 1; --i) {
      std::swap(cycle[i - 1], cycle[rng.Uniform(i)]);
    }
    in.writer_pairs.insert(in.writer_pairs.end(), cycle.begin(), cycle.end());
  }
  return in;
}

// ---- The benchmark's own timeline. In the traced run every public
// call it makes is recorded here as a span.
struct Timeline {
  Clock::time_point anchor = Clock::now();
  SpanLog* log = nullptr;  // Null in untraced runs.

  double Since(Clock::time_point t) const { return MsBetween(anchor, t); }
  void Record(const std::string& name, Clock::time_point t0,
              Clock::time_point t1) const {
    if (log == nullptr) return;
    sama::TraceSpan span;
    span.id = log->NewId();
    span.name = name;
    span.start_millis = Since(t0);
    span.duration_millis = MsBetween(t0, t1);
    log->Add(std::move(span));
  }
};

// ---- One served program instance.
struct Instance {
  std::string dir;
  // Declared first so it outlives the engine and server that hold it.
  std::unique_ptr<sama::MetricsRegistry> registry =
      std::make_unique<sama::MetricsRegistry>();
  std::unique_ptr<sama::DataGraph> graph;
  std::unique_ptr<sama::PathIndex> index;
  std::unique_ptr<sama::ShardedIndex> sharded_index;
  std::unique_ptr<sama::SamaEngine> engine;
  std::unique_ptr<sama::ShardedEngine> sharded_engine;
  std::unique_ptr<sama::BinaryQueryServer> server;
};

struct SetupTimes {
  double graph_s = 0;
  double build_s = 0;
  double open_s = 0;
  double engine_s = 0;
  double updates_s = 0;
  double server_s = 0;
  double total_s() const {
    return graph_s + build_s + open_s + engine_s + updates_s + server_s;
  }
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

sama::EngineOptions EngineOptionsFor(const Workload& w,
                                     sama::MetricsRegistry* registry) {
  sama::EngineOptions options;
  options.num_threads = w.engine_threads;
  options.obs.registry = registry;
  return options;
}

// The program's own set-up and nothing else: graph, index build (and
// open), engine, update path and server start. `serve` = false stops
// before the server (direct-call passes).
Status SetUp(const Workload& w, const Inputs& in,
             const sama::Thesaurus& thesaurus, const std::string& dir,
             bool serve, const Timeline& tl, Instance* inst,
             SetupTimes* times) {
  inst->dir = dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);

  auto t0 = Clock::now();
  inst->graph = std::make_unique<sama::DataGraph>(
      sama::DataGraph::FromTriples(in.triples));
  auto t1 = Clock::now();
  tl.Record("setup.graph", t0, t1);
  if (w.shards == 0) {
    inst->index = std::make_unique<sama::PathIndex>();
    sama::PathIndexOptions options;
    if (w.on_disk) options.dir = dir;
    Status s = inst->index->Build(*inst->graph, options);
    if (!s.ok()) return s;
  } else {
    sama::ShardedIndexOptions options;
    options.num_shards = w.shards;
    Status s = sama::BuildShardedIndex(*inst->graph, dir, options);
    if (!s.ok()) return s;
  }
  auto t2 = Clock::now();
  tl.Record("setup.index_build", t1, t2);
  if (w.shards != 0) {
    inst->sharded_index = std::make_unique<sama::ShardedIndex>();
    Status s = inst->sharded_index->Open(inst->graph.get(), dir,
                                         /*strict=*/true);
    if (!s.ok()) return s;
  }
  auto t3 = Clock::now();
  tl.Record("setup.index_open", t2, t3);
  const sama::EngineOptions engine_options =
      EngineOptionsFor(w, inst->registry.get());
  if (w.shards != 0) {
    inst->sharded_engine = std::make_unique<sama::ShardedEngine>(
        inst->graph.get(), inst->sharded_index.get(), &thesaurus,
        engine_options);
  } else {
    inst->engine = std::make_unique<sama::SamaEngine>(
        inst->graph.get(), inst->index.get(), &thesaurus, engine_options);
  }
  auto t4 = Clock::now();
  tl.Record("setup.engine", t3, t4);
  if (w.writable) {
    sama::UpdateOptions updates;
    updates.checkpoint_every = kCheckpointEvery;
    updates.registry = inst->registry.get();
    Status s = inst->engine->EnableUpdates(inst->graph.get(),
                                           inst->index.get(), updates);
    if (!s.ok()) return s;
  }
  auto t5 = Clock::now();
  tl.Record("setup.updates", t4, t5);
  if (serve) {
    sama::BinaryQueryServer::Options server_options;
    server_options.num_workers = w.server_workers;
    server_options.registry = inst->registry.get();
    inst->server =
        inst->sharded_engine != nullptr
            ? std::make_unique<sama::BinaryQueryServer>(
                  inst->sharded_engine.get(), server_options)
            : std::make_unique<sama::BinaryQueryServer>(inst->engine.get(),
                                                        server_options);
    Status s = inst->server->Start();
    if (!s.ok()) return s;
  }
  auto t6 = Clock::now();
  tl.Record("setup.server_start", t5, t6);
  times->graph_s = Seconds(t0, t1);
  times->build_s = Seconds(t1, t2);
  times->open_s = Seconds(t2, t3);
  times->engine_s = Seconds(t3, t4);
  times->updates_s = Seconds(t4, t5);
  times->server_s = Seconds(t5, t6);
  return Status::Ok();
}

// The wire payload of a direct engine call: the reference a served
// response must equal byte for byte.
sama::Result<std::string> DirectPayload(const Instance& inst,
                                        const MixQuery& q,
                                        sama::QueryStats* stats) {
  auto answers =
      inst.sharded_engine != nullptr
          ? inst.sharded_engine->ExecuteSparql(q.parsed, kAnswers, stats)
          : inst.engine->ExecuteSparql(q.parsed, kAnswers, stats);
  if (!answers.ok()) return answers.status();
  return sama::EncodeQueryResult(sama::MakeQueryResultWire(
      *answers, q.parsed.select_vars, stats->search_truncated));
}

// Bytes the buffer pools of the instance's disk-backed indexes loaded.
uint64_t PoolBytesRead(const Instance& inst) {
  uint64_t bytes = 0;
  if (inst.index != nullptr) bytes += inst.index->cache_stats().bytes_read;
  if (inst.sharded_index != nullptr) {
    for (size_t s = 0; s < inst.sharded_index->num_shards(); ++s) {
      const sama::PathIndex* shard = inst.sharded_index->shard(s);
      if (shard != nullptr) bytes += shard->cache_stats().bytes_read;
    }
  }
  return bytes;
}

// ---- The timed phase.

struct ConnOutcome {
  std::vector<double> rtt_ms;  // Verified responses only.
  std::vector<double> done_s;  // Their completion, since the phase start.
  std::vector<uint32_t> mix_index;  // Their query, as an index into the mix.
  // Read-only builds: acknowledged update probes and their completion.
  std::vector<double> update_ms;
  std::vector<double> update_done_s;
  uint64_t updates_sent = 0;
  uint64_t update_failures = 0;
  uint64_t update_frame_bytes = 0;  // Wire size of their responses.
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t mismatches = 0;
  uint64_t shed = 0;
  uint64_t protocol_errors = 0;
  Clock::time_point finished;
  LayerTable layers;
};

struct WriterOutcome {
  std::vector<double> latency_ms;  // From the scheduled send time.
  std::vector<double> done_s;
  std::vector<double> lag_ms;      // Actual minus scheduled send time.
  uint64_t sent = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t frame_bytes = 0;  // Wire size of the acknowledgements.
  // Traced phase, per acknowledged update of a writable server.
  std::vector<double> lock_wait_ms, append_ms, fsync_ms, apply_ms;
  std::vector<double> checkpoint_ms;  // One per checkpoint taken.
  LayerTable layers;
};

struct PhaseResult {
  double elapsed_s = 0;
  double steal = 0;
  std::vector<ConnOutcome> conns;
  WriterOutcome writer;
  RegistryDelta registry;  // The instance's own registry.
  RegistryDelta global;    // Buffer-pool counters live in the global one.
  uint64_t bytes_read = 0;
  // Steal-gate windows: end time (since the phase start) and whether
  // the end-to-end metrics keep it; kept_s is the time kept windows
  // cover.
  std::vector<double> window_end_s;
  std::vector<bool> window_kept;
  double kept_s = 0;

  bool Kept(double done_s) const {
    auto it = std::lower_bound(window_end_s.begin(), window_end_s.end(),
                               done_s);
    return it == window_end_s.end() ||
           window_kept[static_cast<size_t>(it - window_end_s.begin())];
  }
  // The samples that completed in kept windows.
  std::vector<double> Gated(const std::vector<double>& values,
                            const std::vector<double>& done_s) const {
    std::vector<double> out;
    for (size_t i = 0; i < values.size(); ++i) {
      if (Kept(done_s[i])) out.push_back(values[i]);
    }
    return out;
  }
  std::vector<double> QueryRtts(bool gated = false) const {
    std::vector<double> all;
    for (const ConnOutcome& c : conns) {
      std::vector<double> v = gated ? Gated(c.rtt_ms, c.done_s) : c.rtt_ms;
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  // The gated round trips of one query of the mix.
  std::vector<double> MixRtts(uint32_t mix_index) const {
    std::vector<double> out;
    for (const ConnOutcome& c : conns) {
      for (size_t i = 0; i < c.rtt_ms.size(); ++i) {
        if (c.mix_index[i] == mix_index && Kept(c.done_s[i])) {
          out.push_back(c.rtt_ms[i]);
        }
      }
    }
    return out;
  }

  uint64_t QueriesOk() const {
    uint64_t n = 0;
    for (const ConnOutcome& c : conns) n += c.ok;
    return n;
  }
  // Bytes of the server's responses to update frames (acknowledgements
  // or refusals), which its bytes-written counter also counts.
  uint64_t UpdateFrameBytes() const {
    uint64_t n = writer.frame_bytes;
    for (const ConnOutcome& c : conns) n += c.update_frame_bytes;
    return n;
  }
  // Update acknowledgement latencies in kept windows: the writer's on a
  // writable build, the query connections' probes on a read-only one.
  std::vector<double> UpdateLatencies() const {
    std::vector<double> all = Gated(writer.latency_ms, writer.done_s);
    for (const ConnOutcome& c : conns) {
      std::vector<double> v = Gated(c.update_ms, c.update_done_s);
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  uint64_t Attempted() const {
    uint64_t n = writer.sent;
    for (const ConnOutcome& c : conns) n += c.sent + c.updates_sent;
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = writer.failed;
    for (const ConnOutcome& c : conns) {
      n += c.mismatches + c.shed + c.protocol_errors + c.update_failures;
    }
    return n;
  }
  LayerTable Layers() const {
    LayerTable t = writer.layers;
    for (const ConnOutcome& c : conns) t.Merge(c.layers);
    return t;
  }
};

struct PhaseShared {
  const Workload& w;
  const Inputs& in;
  const Instance& inst;
  const Timeline& tl;
  bool traced = false;
  uint64_t seed = 0;
  size_t updates = 0;  // Writer frames this phase.
  std::atomic<int64_t> pair{-1};        // Writer pair in progress.
  std::atomic<uint64_t> next_trace{1};  // Propagated trace ids.
  Clock::time_point start{};
  Clock::time_point deadline{};
};

// Propagates a fresh trace id for the next request, parented under
// the client span `span`.
sama::TraceContext NextTrace(PhaseShared& ps, uint64_t span) {
  sama::TraceContext ctx;
  ctx.trace_id_hi = 0x5e7eb0c400000000ULL | (ps.seed & 0xffffffffULL);
  ctx.trace_id_lo = ps.next_trace.fetch_add(1);
  ctx.parent_span = span;
  ctx.sampled = true;
  return ctx;
}

// Folds the server-side spans of one traced round trip into `layers`
// (and, while there is room, the Perfetto log). Returns those spans.
std::vector<sama::TraceSpan> CollectTrace(const PhaseShared& ps,
                                          const sama::TraceContext& ctx,
                                          const char* client_name,
                                          Clock::time_point t0,
                                          Clock::time_point t1, uint32_t tid,
                                          LayerTable* layers) {
  std::vector<sama::TraceSpan> spans;
  auto trace = ps.inst.server->trace_store().Find(ctx.TraceIdHex());
  if (trace != nullptr) spans = trace->Snapshot();
  layers->AddTrace(spans);
  const double rtt = MsBetween(t0, t1);
  const sama::TraceSpan* root = nullptr;
  for (const sama::TraceSpan& s : spans) {
    if (s.name == "request" && s.parent == ctx.parent_span) root = &s;
  }
  const double root_dur = root != nullptr ? root->duration_millis : 0;
  layers->Add(client_name, rtt, rtt - root_dur);
  SpanLog* log = ps.tl.log;
  if (log != nullptr && !log->full()) {
    sama::TraceSpan client;
    client.id = ctx.parent_span;
    client.name = client_name;
    client.start_millis = ps.tl.Since(t0);
    client.duration_millis = rtt;
    client.thread = tid;
    log->Add(client);
    // Server trace times count from that trace's creation; centre the
    // server's request span inside the client round trip.
    double root_start = root != nullptr ? root->start_millis : 0;
    double offset = client.start_millis +
                    std::max(0.0, (rtt - root_dur) / 2) - root_start;
    log->AddServerTrace(spans, offset, 100 + 16 * tid);
  }
  return spans;
}

// A response is correct when it equals the reference of a state the
// writer can have produced while it was in flight: the base, or (rw)
// the base plus the one insert of any pair in progress in that window.
bool Acceptable(const PhaseShared& ps, const MixQuery& q,
                const std::string& payload, int64_t pair_before,
                int64_t pair_after) {
  if (payload == q.base_payload) return true;
  if (!ps.w.writable) return false;
  const int64_t pairs = static_cast<int64_t>(ps.updates / 2);
  for (int64_t j = std::max<int64_t>(0, pair_before);
       j <= pair_after && j < pairs; ++j) {
    if (payload == q.state_payloads[ps.in.writer_pairs[j]]) return true;
  }
  return false;
}

void QueryLoop(PhaseShared& ps, size_t conn, std::latch& connected,
               std::latch& go, ConnOutcome* out) {
  sama::BinaryClient client;
  Status s = client.Connect(ps.inst.server->host(), ps.inst.server->port());
  connected.count_down();
  go.wait();
  if (!s.ok()) {
    ++out->sent;
    ++out->protocol_errors;
    out->finished = Clock::now();
    return;
  }
  const std::vector<uint32_t>& list = ps.in.request_lists[conn];
  const uint32_t tid = static_cast<uint32_t>(conn + 1);
  uint64_t id = static_cast<uint64_t>(conn + 1) << 40;
  for (size_t i = 0; Clock::now() < ps.deadline; ++i) {
    const MixQuery& q = ps.in.mix[list[i % list.size()]];
    ++id;
    sama::TraceContext ctx;
    if (ps.traced) {
      ctx = NextTrace(ps, ps.tl.log->NewId());
      client.set_trace(ctx);
    }
    const int64_t pair_before = ps.pair.load(std::memory_order_acquire);
    ++out->sent;
    auto t0 = Clock::now();
    if (!client.SendQuery(q.request, id).ok()) {
      ++out->protocol_errors;
      break;
    }
    // A read-only build refuses every update with kReadOnly, in a few
    // microseconds, on its event loop. Timed on a connection of its own
    // that refusal depends on where the scheduler put two threads: its
    // p50 read 19 or 34 us from run to run. So on these builds every
    // query is followed on its connection by an update frame. Responses
    // leave a connection in request order, so the refusal is
    // acknowledged right after that query's answer: what an update
    // client sharing a connection with queries waits here.
    const bool probe = !ps.w.writable;
    const uint64_t probe_id = (uint64_t{1} << 48) | id;
    Clock::time_point probe_sent{};
    if (probe) {
      sama::UpdateRequest update;
      update.op = sama::UpdateRequest::kOpInsert;
      update.statement =
          ps.in.writer_pool[i % ps.in.writer_pool.size()]
              .ToString();
      ++out->updates_sent;
      probe_sent = Clock::now();
      if (!client.SendUpdate(update, probe_id).ok()) {
        ++out->update_failures;
        break;
      }
    }
    auto frame = client.ReadFrame();
    auto t1 = Clock::now();
    if (!frame.ok() || frame->request_id != id) {
      ++out->protocol_errors;
      break;
    }
    if (probe) {
      auto refusal = client.ReadFrame();
      auto t2 = Clock::now();
      if (refusal.ok()) {
        out->update_frame_bytes += sama::EncodeFrame(*refusal).size();
      }
      sama::ErrorBody error;
      if (refusal.ok() && refusal->request_id == probe_id &&
          refusal->type == sama::FrameType::kError &&
          sama::DecodeErrorBody(refusal->payload, &error) &&
          error.code == sama::WireStatus::kReadOnly) {
        out->update_ms.push_back(MsBetween(probe_sent, t2));
        out->update_done_s.push_back(Seconds(ps.start, t2));
      } else {
        ++out->update_failures;
        if (!refusal.ok()) break;
      }
    }
    const int64_t pair_after = ps.pair.load(std::memory_order_acquire);
    if (frame->type == sama::FrameType::kResult) {
      if (Acceptable(ps, q, frame->payload, pair_before, pair_after)) {
        ++out->ok;
        out->rtt_ms.push_back(MsBetween(t0, t1));
        out->done_s.push_back(Seconds(ps.start, t1));
        out->mix_index.push_back(list[i % list.size()]);
      } else {
        ++out->mismatches;
      }
    } else {
      sama::ErrorBody error;
      if (frame->type == sama::FrameType::kError &&
          sama::DecodeErrorBody(frame->payload, &error) &&
          error.code == sama::WireStatus::kShed) {
        ++out->shed;
      } else {
        ++out->protocol_errors;
      }
    }
    if (ps.traced) {
      CollectTrace(ps, ctx, "client.query", t0, t1, tid, &out->layers);
    }
  }
  out->finished = Clock::now();
}

double SpanSum(const std::vector<sama::TraceSpan>& spans, const char* name) {
  double sum = 0;
  for (const sama::TraceSpan& s : spans) {
    if (s.name == name && s.duration_millis > 0) sum += s.duration_millis;
  }
  return sum;
}

// Sends ps.updates durable updates on a fixed schedule, each waiting
// for its acknowledgement: insert/delete pairs of the seeded pool
// triples. Each must be acknowledged kOk, durable, with an increasing
// LSN.
void WriterLoop(PhaseShared& ps, std::latch& connected, std::latch& go,
                WriterOutcome* out) {
  sama::BinaryClient client;
  Status s = client.Connect(ps.inst.server->host(), ps.inst.server->port());
  connected.count_down();
  go.wait();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kUpdateRate));
  const uint32_t tid = 0;
  uint64_t last_lsn = 0;
  size_t j = 0;
  for (; s.ok() && j < ps.updates; ++j) {
    const size_t pair = j / 2;
    const bool insert = j % 2 == 0;
    if (insert) {
      ps.pair.store(static_cast<int64_t>(pair), std::memory_order_release);
    }
    const Clock::time_point scheduled =
        ps.start + period * static_cast<int64_t>(j);
    std::this_thread::sleep_until(scheduled);
    sama::UpdateRequest request;
    request.op = insert ? sama::UpdateRequest::kOpInsert
                        : sama::UpdateRequest::kOpDelete;
    request.statement =
        ps.in.writer_pool[ps.in.writer_pairs[pair]].ToString();
    const uint64_t id = (uint64_t{1} << 48) + j + 1;
    sama::TraceContext ctx;
    if (ps.traced) {
      ctx = NextTrace(ps, ps.tl.log->NewId());
      client.set_trace(ctx);
    }
    ++out->sent;
    auto t0 = Clock::now();
    if (!client.SendUpdate(request, id).ok()) break;
    auto frame = client.ReadFrame();
    auto t1 = Clock::now();
    if (!frame.ok()) break;
    out->frame_bytes += sama::EncodeFrame(*frame).size();
    sama::UpdateResultWire ack;
    const bool good = frame->request_id == id &&
                      frame->type == sama::FrameType::kUpdateResult &&
                      sama::DecodeUpdateResult(frame->payload, &ack) &&
                      ack.status == sama::WireStatus::kOk &&
                      ack.lsn > last_lsn && ack.durable == 1;
    if (good) last_lsn = ack.lsn;
    if (!good) {
      ++out->failed;
      continue;
    }
    ++out->acked;
    out->latency_ms.push_back(MsBetween(scheduled, t1));
    out->done_s.push_back(Seconds(ps.start, t1));
    out->lag_ms.push_back(MsBetween(scheduled, t0));
    if (ps.traced) {
      std::vector<sama::TraceSpan> spans =
          CollectTrace(ps, ctx, "client.update", t0, t1, tid, &out->layers);
      double append = SpanSum(spans, "wal.append");
      double fsync = SpanSum(spans, "wal.fsync");
      double apply = SpanSum(spans, "wal.apply");
      double checkpoint = SpanSum(spans, "wal.checkpoint");
      out->append_ms.push_back(append);
      out->fsync_ms.push_back(fsync);
      out->apply_ms.push_back(apply);
      if (checkpoint > 0) out->checkpoint_ms.push_back(checkpoint);
      // ApplyUpdate takes the exclusive update lock before its first
      // span opens, so the rest of the round trip is lock wait (plus the
      // wire, which the query side measures at well under 1 ms).
      out->lock_wait_ms.push_back(MsBetween(t0, t1) - append - fsync -
                                  apply - checkpoint);
    }
  }
  // Frames never sent because the connection broke count as failed.
  if (j < ps.updates) {
    out->failed = ps.updates - out->acked;
    out->sent = ps.updates;
  }
  ps.pair.store(static_cast<int64_t>(ps.updates / 2),
                std::memory_order_release);
}

PhaseResult RunPhase(const Workload& w, const Inputs& in, const Instance& inst,
                     const Timeline& tl, uint64_t seed, double seconds,
                     bool traced, bool with_writer) {
  PhaseShared ps{w, in, inst, tl};
  ps.traced = traced;
  ps.seed = seed;
  ps.updates = with_writer ? UpdatesFor(seconds) : 0;
  PhaseResult result;
  result.conns.resize(w.query_connections);
  const size_t threads = w.query_connections + (with_writer ? 1 : 0);
  std::latch connected(static_cast<std::ptrdiff_t>(threads));
  std::latch go(1);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < w.query_connections; ++c) {
    pool.emplace_back([&, c] {
      QueryLoop(ps, c, connected, go, &result.conns[c]);
    });
  }
  if (with_writer) {
    pool.emplace_back([&] { WriterLoop(ps, connected, go, &result.writer); });
  }
  connected.wait();
  result.registry.before = RegistrySnapshot(*inst.registry);
  result.global.before = RegistrySnapshot(*sama::MetricsRegistry::Global());
  const uint64_t bytes_before = PoolBytesRead(inst);
  const CpuTimes cpu_before = ReadCpuTimes();
  ps.start = Clock::now();
  ps.deadline = ps.start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  go.count_down();
  std::atomic<bool> done{false};
  std::vector<double> window_steal;
  std::thread sampler([&] {
    CpuTimes last = cpu_before;
    const auto step = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(w.steal_window_s));
    for (Clock::time_point next = ps.start + step;; next += step) {
      while (!done.load() && Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      CpuTimes now = ReadCpuTimes();
      window_steal.push_back(StealShare(last, now));
      result.window_end_s.push_back(Seconds(ps.start, Clock::now()));
      last = now;
      if (done.load()) return;
    }
  });
  for (std::thread& t : pool) t.join();
  Clock::time_point finished = ps.start;
  for (const ConnOutcome& c : result.conns) {
    finished = std::max(finished, c.finished);
  }
  done.store(true);
  sampler.join();
  result.elapsed_s = Seconds(ps.start, finished);
  result.steal = StealShare(cpu_before, ReadCpuTimes());
  // Keep the clean windows; if they are too few, the least-stolen ones.
  std::vector<double> length(window_steal.size());
  std::vector<size_t> order(window_steal.size());
  for (size_t i = 0; i < window_steal.size(); ++i) {
    const double begin = i == 0 ? 0 : result.window_end_s[i - 1];
    length[i] = std::max(0.0, std::min(result.window_end_s[i],
                                       result.elapsed_s) - begin);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return window_steal[a] < window_steal[b];
  });
  result.window_kept.assign(window_steal.size(), false);
  for (size_t i : order) {
    if (window_steal[i] > kMaxSteal &&
        result.kept_s >= kMinKeptShare * result.elapsed_s) {
      break;
    }
    result.window_kept[i] = true;
    result.kept_s += length[i];
  }
  result.bytes_read = PoolBytesRead(inst) - bytes_before;
  result.registry.after = RegistrySnapshot(*inst.registry);
  result.global.after = RegistrySnapshot(*sama::MetricsRegistry::Global());
  return result;
}

// ---- Direct-call passes.

// Per mix query: stats of a cold and a warm direct call on a fresh
// instance, plus (rw) the WAL counters of a fixed run of durable
// updates. Everything compared between two passes is deterministic.
struct CountPass {
  std::vector<sama::QueryStats> cold;
  std::vector<sama::QueryStats> warm;
  std::vector<std::string> payloads;
  size_t updates = 0;
  double wal_appends = 0;
  double wal_fsyncs = 0;
  double wal_bytes = 0;
  double checkpoints = 0;
};

Status RunCountPass(const Workload& w, const Inputs& in,
                    const sama::Thesaurus& thesaurus, const std::string& dir,
                    const Timeline& tl, CountPass* pass) {
  auto owned = std::make_unique<Instance>();
  Instance& inst = *owned;
  SetupTimes unused;
  Status s = SetUp(w, in, thesaurus, dir, /*serve=*/false, tl, &inst, &unused);
  if (!s.ok()) return s;
  for (const MixQuery& q : in.mix) {
    sama::QueryStats cold;
    auto payload = DirectPayload(inst, q, &cold);
    if (!payload.ok()) return payload.status();
    pass->cold.push_back(cold);
    pass->payloads.push_back(*payload);
  }
  for (const MixQuery& q : in.mix) {
    sama::QueryStats warm;
    auto payload = DirectPayload(inst, q, &warm);
    if (!payload.ok()) return payload.status();
    pass->warm.push_back(warm);
  }
  if (w.writable) {
    RegistryDelta d;
    d.before = RegistrySnapshot(*inst.registry);
    pass->updates = 2 * kCheckpointEvery;
    for (size_t j = 0; j < pass->updates; ++j) {
      sama::TripleUpdate update;
      update.op = j % 2 == 0 ? sama::TripleUpdate::Op::kInsert
                             : sama::TripleUpdate::Op::kDelete;
      update.triple = in.writer_pool[in.writer_pairs[(j / 2) %
                                                     in.writer_pairs.size()]];
      auto lsn = inst.engine->ApplyUpdate(update);
      if (!lsn.ok()) return lsn.status();
    }
    d.after = RegistrySnapshot(*inst.registry);
    pass->wal_appends = d.Counter("sama_wal_appends_total");
    pass->wal_fsyncs = d.Counter("sama_wal_fsyncs_total");
    pass->wal_bytes = d.Counter("sama_wal_appended_bytes_total");
    pass->checkpoints = d.Counter("sama_update_checkpoints_total");
  }
  owned.reset();
  fs::remove_all(dir);
  return Status::Ok();
}

// The deterministic counts of one pass, flattened with their names.
std::vector<std::pair<std::string, double>> DeterministicCounts(
    const Inputs& in, const CountPass& p) {
  std::vector<std::pair<std::string, double>> out;
  auto add = [&](const std::string& name, double v) {
    out.emplace_back(name, v);
  };
  for (size_t i = 0; i < in.mix.size(); ++i) {
    for (int warm = 0; warm < 2; ++warm) {
      const sama::QueryStats& st = warm ? p.warm[i] : p.cold[i];
      std::string prefix = in.mix[i].name + (warm ? ".warm." : ".cold.");
      add(prefix + "candidates", static_cast<double>(st.num_candidate_paths));
      add(prefix + "expansions", static_cast<double>(st.search_expansions));
      add(prefix + "bound_pruned",
          static_cast<double>(st.search_bound_pruned));
      add(prefix + "roots_pruned",
          static_cast<double>(st.search_roots_pruned));
      add(prefix + "truncated", st.search_truncated ? 1 : 0);
      add(prefix + "answers", static_cast<double>(st.num_answers));
    }
  }
  if (p.updates > 0) {
    add("wal.appends_per_update", p.wal_appends / p.updates);
    add("wal.fsyncs_per_update", p.wal_fsyncs / p.updates);
    add("wal.bytes_per_update", p.wal_bytes / p.updates);
    add("wal.checkpoints", p.checkpoints);
  }
  return out;
}

// Mix-weighted aggregates over one pass's direct-call stats.
struct Weighted {
  const Inputs& in;
  template <typename F>
  double Sum(const std::vector<sama::QueryStats>& stats, F f) const {
    double sum = 0;
    for (size_t i = 0; i < in.mix.size(); ++i) {
      sum += in.mix[i].weight * f(stats[i]);
    }
    return sum;
  }
  template <typename F>
  double HitRatio(const std::vector<sama::QueryStats>& stats, F cache) const {
    double hits = Sum(stats, [&](const sama::QueryStats& s) {
      return static_cast<double>(cache(s).hits);
    });
    double lookups = Sum(stats, [&](const sama::QueryStats& s) {
      return static_cast<double>(cache(s).lookups());
    });
    return Ratio(hits, lookups);
  }
};

// Per-call microseconds of the protocol codec and the SPARQL parser on
// the mix's own payloads and texts, mix-weighted; each batch is one
// span of the traced run.
struct CodecTimes {
  double parse_us = 0;
  double encode_us = 0;
  double decode_us = 0;
};

CodecTimes TimeCodec(const Inputs& in, const Timeline& tl) {
  CodecTimes out;
  volatile size_t sink = 0;
  auto per_call_us = [&](const char* name, auto call) {
    std::vector<double> batches;
    for (int b = 0; b < kCodecBatches; ++b) {
      auto t0 = Clock::now();
      for (int i = 0; i < kCodecCalls; ++i) sink = sink + call();
      auto t1 = Clock::now();
      tl.Record(name, t0, t1);
      batches.push_back(MsBetween(t0, t1) * 1000.0 / kCodecCalls);
    }
    return Quantile(batches, 0.5);
  };
  for (const MixQuery& q : in.mix) {
    sama::QueryResultWire wire;
    sama::DecodeQueryResult(q.base_payload, &wire);
    out.parse_us += q.weight * per_call_us("bench.parse", [&] {
      return sama::ParseSparql(q.request.sparql).ok() ? size_t{1} : 0;
    });
    out.encode_us += q.weight * per_call_us("bench.encode", [&] {
      return sama::EncodeQueryResult(wire).size();
    });
    out.decode_us += q.weight * per_call_us("bench.decode", [&] {
      sama::QueryResultWire decoded;
      return sama::DecodeQueryResult(q.base_payload, &decoded)
                 ? decoded.answers.size()
                 : 0;
    });
  }
  return out;
}

// ---- Arguments and output.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // Required: BENCHMARK.json's run_seconds.
  bool trace = false;
  std::string tmp_dir;
  std::string out_dir;
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    std::string value;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    kv[key.substr(2)] = value;
  }
  for (const auto& [key, value] : kv) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 120) {
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "tmp-dir") {
      args->tmp_dir = value;
    } else if (key == "out-dir") {
      args->out_dir = value;
    } else if (key == "source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         !args->tmp_dir.empty() && !args->out_dir.empty();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0 : it->second;
    out += std::string(i ? ", " : "") + "\"" + defs[i].name +
           "\": {\"value\": " + Num(v) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  return out + "}";
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// rw: reopens the served index so the journal tail replays, then runs
// one direct pass of the mix, which must equal the base references
// (every writer pair ended in its delete). Returns the replay time.
sama::Result<double> ReplayAndCheck(const Workload& w, const Inputs& in,
                                    const sama::Thesaurus& thesaurus,
                                    const std::string& dir,
                                    const Timeline& tl, uint64_t* attempted,
                                    uint64_t* failed) {
  Instance reopened;
  reopened.graph = std::make_unique<sama::DataGraph>(
      sama::DataGraph::FromTriples(in.triples));
  reopened.index = std::make_unique<sama::PathIndex>();
  sama::PathIndexOptions options;
  options.dir = dir;
  Status s = reopened.index->Open(reopened.graph.get(), options);
  if (!s.ok()) return s;
  reopened.engine = std::make_unique<sama::SamaEngine>(
      reopened.graph.get(), reopened.index.get(), &thesaurus,
      EngineOptionsFor(w, reopened.registry.get()));
  sama::UpdateOptions updates;
  updates.checkpoint_every = kCheckpointEvery;
  updates.registry = reopened.registry.get();
  auto t0 = Clock::now();
  s = reopened.engine->EnableUpdates(reopened.graph.get(),
                                     reopened.index.get(), updates);
  auto t1 = Clock::now();
  tl.Record("bench.replay", t0, t1);
  if (!s.ok()) return s;
  for (const MixQuery& q : in.mix) {
    sama::QueryStats stats;
    auto payload = DirectPayload(reopened, q, &stats);
    ++*attempted;
    if (!payload.ok() || *payload != q.base_payload) {
      ++*failed;
      std::printf("replay check: %s differs from the base reference\n",
                  q.name.c_str());
    }
  }
  return MsBetween(t0, t1);
}

// Compares the deterministic counts and answers of two passes, prints
// them, and returns how many differ; each compared value is one
// attempted check.
uint64_t CompareCounts(const Inputs& in, const CountPass& a,
                       const CountPass& b, uint64_t* attempted) {
  auto ca = DeterministicCounts(in, a);
  auto cb = DeterministicCounts(in, b);
  uint64_t differing = 0;
  for (size_t i = 0; i < ca.size(); ++i) {
    ++*attempted;
    if (ca[i].second != cb[i].second) {
      ++differing;
      std::printf("count %s not exact: %s vs %s\n", ca[i].first.c_str(),
                  Num(ca[i].second).c_str(), Num(cb[i].second).c_str());
    }
  }
  for (size_t i = 0; i < in.mix.size(); ++i) {
    ++*attempted;
    if (a.payloads[i] != in.mix[i].base_payload ||
        b.payloads[i] != in.mix[i].base_payload) {
      ++differing;
      std::printf("count pass: %s answers differ from the served build\n",
                  in.mix[i].name.c_str());
    }
  }
  std::string line;
  for (const auto& [name, v] : ca) {
    line += (line.empty() ? "" : ", ") + name + "=" + Num(v);
  }
  std::printf("counts (%zu, %s across two passes): %s\n", ca.size(),
              differing == 0 ? "exact" : "NOT exact", line.c_str());
  return differing;
}

// Regime checks: do this commit's numbers still put the workload in the
// regime README.md describes? Reported, never failed: a change that
// moves a workload out of its regime is a finding, not an incorrect run.
void PrintRegimes(const Workload& w,
                  const std::map<std::string, double>& metrics,
                  double search_share, double lowest_warm_hit_ratio,
                  double single_index_expansions) {
  auto regime = [&](const std::string& what, double v, bool holds) {
    std::printf("regime %s: %s = %s -> %s\n", w.name.c_str(), what.c_str(),
                Num(v).c_str(), holds ? "holds" : "does not hold");
  };
  const double truncated = metrics.at("core.search_truncated_share");
  if (w.name == "heavy") {
    regime("search share of engine time >= 0.9", search_share,
           search_share >= 0.9);
    regime("truncated share == 1", truncated, truncated == 1);
  } else if (w.name == "light") {
    regime("lowest warm hit ratio of the consulted caches == 1",
           lowest_warm_hit_ratio, lowest_warm_hit_ratio == 1);
    regime("truncated share == 0", truncated, truncated == 0);
  } else if (w.name == "rw") {
    const double record = metrics.at("cache.record_hit_ratio");
    regime("cache.record_hit_ratio < 1", record, record < 1);
    const double lock = metrics.at("update.lock_wait_ms");
    const double largest_other =
        std::max({metrics.at("wal.append_ms"), metrics.at("wal.fsync_ms"),
                  metrics.at("wal.apply_ms")});
    regime("update.lock_wait_ms is the largest part of an update", lock,
           lock > largest_other);
  } else if (w.name == "shard4") {
    const double shard = metrics.at("shard.expansions");
    regime("shard.expansions over one index's (" +
               Num(single_index_expansions) + ")",
           shard, shard > single_index_expansions);
  }
}

// Writes the per-layer table and the Perfetto trace of a traced run.
void WriteLayerFiles(const LayerTable& layers, const SpanLog& log,
                     const std::string& out_dir, const std::string& tag) {
  const std::string table_path =
      (fs::path(out_dir) / (tag + ".layers.txt")).string();
  if (FILE* f = std::fopen(table_path.c_str(), "w")) {
    std::fprintf(f, "%-22s %10s %12s %12s\n", "span", "count", "mean_ms",
                 "self_mean_ms");
    for (const auto& [name, row] : layers.rows()) {
      std::fprintf(f, "%-22s %10llu %12.4f %12.4f\n", name.c_str(),
                   static_cast<unsigned long long>(row.count),
                   Ratio(row.total_ms, static_cast<double>(row.count)),
                   Ratio(row.self_ms, static_cast<double>(row.count)));
    }
    std::fclose(f);
  }
  const std::string trace_path =
      (fs::path(out_dir) / (tag + ".perfetto.json")).string();
  std::ofstream trace(trace_path, std::ios::binary);
  trace << sama::RenderSpansChromeTrace(log.spans(), tag);
  if (!trace.flush()) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  std::printf("layers: %s\ntrace: %s\n", table_path.c_str(),
              trace_path.c_str());
}

int Run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const fs::path tmp = fs::path(args.tmp_dir) / "run";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  fs::create_directories(args.out_dir);
  const std::string tag =
      w.name + "-seed" + std::to_string(args.seed) +
      (args.trace ? "-trace" : "");
  auto fail = [&](const char* what, const Status& s) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    fs::remove_all(tmp);
    return 1;
  };

  SpanLog log(kPerfettoSpans);
  Timeline tl;
  if (args.trace) tl.log = &log;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;

  // Inputs first; none of this is set-up.
  Inputs in = MakeInputs(w, args.seed, phase_s);
  const sama::Thesaurus thesaurus = sama::Thesaurus::BuiltinEnglish();
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Set-up, repeated: a single set-up is too short to time steadily.
  // The first half of the set-ups run here, and the last of them is
  // served; the second half run after the timed phases. The host's disk
  // and CPUs drift over seconds, so the set-ups sample it at two moments
  // some 20 s apart rather than one.
  std::vector<SetupTimes> reps;
  CpuTimes setup_cpu;  // Jiffies spent over the set-ups.
  auto time_setups = [&](size_t n, std::unique_ptr<Instance>* keep) {
    const CpuTimes before = ReadCpuTimes();
    for (size_t r = 0; r < n; ++r) {
      auto inst = std::make_unique<Instance>();
      std::string dir = (tmp / ("setup-" + std::to_string(reps.size())))
                            .string();
      reps.emplace_back();
      Status s = SetUp(w, in, thesaurus, dir, /*serve=*/true, tl, inst.get(),
                       &reps.back());
      if (!s.ok()) return s;
      if (keep != nullptr && r + 1 == n) {
        *keep = std::move(inst);
      } else {
        inst.reset();
        fs::remove_all(dir);
      }
    }
    const CpuTimes after = ReadCpuTimes();
    setup_cpu.steal += after.steal - before.steal;
    setup_cpu.total += after.total - before.total;
    return Status::Ok();
  };
  auto served = std::make_unique<Instance>();
  const size_t early_setups = (w.setup_reps + 1) / 2;
  Status setup_status = time_setups(early_setups, &served);
  if (!setup_status.ok()) return fail("set-up", setup_status);
  const double setup_rss_mb = ProcStatusMiB("VmRSS");
  // References: direct engine calls on the served build, before any
  // update. For rw also every state the writer can produce: the base
  // plus one pool triple (applied and undone through the engine's own
  // update path, journalled without fsync).
  for (MixQuery& q : in.mix) {
    sama::QueryStats stats;
    auto payload = DirectPayload(*served, q, &stats);
    if (!payload.ok()) return fail("reference query", payload.status());
    q.base_payload = *payload;
  }
  if (w.writable) {
    for (const sama::Triple& t : in.writer_pool) {
      for (auto op : {sama::TripleUpdate::Op::kInsert,
                      sama::TripleUpdate::Op::kDelete}) {
        sama::TripleUpdate update;
        update.op = op;
        update.triple = t;
        update.durable = false;
        auto lsn = served->engine->ApplyUpdate(update);
        if (!lsn.ok()) return fail("reference update", lsn.status());
        if (op == sama::TripleUpdate::Op::kDelete) break;
        for (MixQuery& q : in.mix) {
          sama::QueryStats stats;
          auto payload = DirectPayload(*served, q, &stats);
          if (!payload.ok()) return fail("reference query", payload.status());
          q.state_payloads.push_back(*payload);
        }
      }
    }
    Status s = served->engine->FlushUpdates();
    if (!s.ok()) return fail("flush", s);
  }
  CodecTimes codec;
  if (args.trace) codec = TimeCodec(in, tl);

  // Warm-up through the socket path: every cache the mix consults fills
  // before the clock starts.
  PhaseResult warm = RunPhase(w, in, *served, tl, args.seed,
                              std::min(1.0, std::max(0.2, phase_s / 10)),
                              /*traced=*/false, /*with_writer=*/false);
  attempted += warm.Attempted();
  failed += warm.Failed();

  PhaseResult untraced = RunPhase(w, in, *served, tl, args.seed, phase_s,
                                  /*traced=*/false, w.writable);
  attempted += untraced.Attempted();
  failed += untraced.Failed();
  PhaseResult traced;
  if (args.trace) {
    traced = RunPhase(w, in, *served, tl, args.seed, phase_s,
                      /*traced=*/true, w.writable);
    attempted += traced.Attempted();
    failed += traced.Failed();
  }
  served->server->Stop();

  double replay_ms = 0;
  if (w.writable) {
    const std::string dir = served->dir;
    served.reset();
    auto replayed = ReplayAndCheck(w, in, thesaurus, dir, tl, &attempted,
                                   &failed);
    if (!replayed.ok()) return fail("replay", replayed.status());
    replay_ms = *replayed;
  }
  served.reset();
  setup_status = time_setups(w.setup_reps - early_setups, nullptr);
  if (!setup_status.ok()) return fail("set-up", setup_status);
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(field(t));
    return Median(v);
  };
  const double setup_s = median_of([](const SetupTimes& t) {
    return t.total_s();
  });

  std::map<std::string, double> metrics;
  const std::vector<MetricDef>* defs = &EndToEndMetrics();
  const PhaseResult& e2e = untraced;
  const std::vector<double> rtts = e2e.QueryRtts(/*gated=*/true);
  const std::vector<double> update_ms = e2e.UpdateLatencies();
  const double update_tail = w.writable ? kUpdateTail : w.tail;
  if (!args.trace) {
    metrics["query_qps"] = Ratio(static_cast<double>(rtts.size()), e2e.kept_s);
    metrics["query_p50_ms"] = Quantile(rtts, 0.5);
    metrics["query_tail_ms"] = Quantile(rtts, w.tail);
    metrics["update_p50_ms"] = Quantile(update_ms, 0.5);
    metrics["update_tail_ms"] = Quantile(update_ms, update_tail);
    metrics["setup_s"] = setup_s;
  } else {
    defs = &PerLayerMetrics();
    CountPass a, b;
    Status s = RunCountPass(w, in, thesaurus, (tmp / "count-a").string(), tl,
                            &a);
    if (!s.ok()) return fail("count pass", s);
    s = RunCountPass(w, in, thesaurus, (tmp / "count-b").string(), tl, &b);
    if (!s.ok()) return fail("count pass", s);
    failed += CompareCounts(in, a, b, &attempted);

    const PhaseResult& p = traced;
    const LayerTable layers = p.Layers();
    const double queries = static_cast<double>(p.QueriesOk());
    const RegistryDelta& reg = p.registry;
    const double request_ms = reg.HistMean("sama_server_request_millis");
    const double queue_ms = reg.HistMean("sama_server_queue_wait_millis");
    const double engine_ms = layers.MeanTotal("query", queries);
    metrics["server.wire_ms"] = Mean(p.QueryRtts()) - request_ms;
    metrics["server.queue_wait_ms"] = queue_ms;
    metrics["server.overhead_ms"] = request_ms - queue_ms - engine_ms;
    metrics["server.encode_us"] = codec.encode_us;
    metrics["server.decode_us"] = codec.decode_us;
    // Per query response: the counter also counts the responses to
    // update frames, whose wire size the clients add up.
    metrics["server.bytes_per_response"] =
        Ratio(reg.Counter("sama_server_bytes_written_total") -
                  static_cast<double>(p.UpdateFrameBytes()),
              queries);
    metrics["query.parse_us"] = codec.parse_us;
    metrics["core.preprocess_ms"] = layers.MeanTotal("preprocess", queries);
    metrics["core.cluster_ms"] = layers.MeanTotal(
        w.shards != 0 ? "scatter" : "clustering", queries);
    metrics["core.search_ms"] = layers.MeanTotal("search", queries);

    const Weighted wt{in};
    using QS = sama::QueryStats;
    const double expansions = wt.Sum(a.warm, [](const QS& s) {
      return static_cast<double>(s.search_expansions);
    });
    const double busy_ms =
        wt.Sum(a.warm, [](const QS& s) { return s.search_busy_millis; });
    const double search_wall_ms =
        wt.Sum(a.warm, [](const QS& s) { return s.search_millis; });
    const double pruned = wt.Sum(a.warm, [](const QS& s) {
      return static_cast<double>(s.search_bound_pruned +
                                 s.search_roots_pruned);
    });
    metrics["core.candidates"] = wt.Sum(a.warm, [](const QS& s) {
      return static_cast<double>(s.num_candidate_paths);
    });
    metrics["core.search_expansions"] = expansions;
    metrics["core.search_ns_per_expansion"] = Ratio(busy_ms * 1e6, expansions);
    metrics["core.search_parallel_speedup"] = Ratio(busy_ms, search_wall_ms);
    metrics["core.search_pruned_ratio"] = Ratio(pruned, pruned + expansions);
    metrics["core.search_truncated_share"] = wt.Sum(
        a.warm, [](const QS& s) { return s.search_truncated ? 1.0 : 0.0; });
    metrics["cache.alignment_hit_ratio"] =
        wt.HitRatio(a.warm, [](const QS& s) { return s.alignment_memo; });
    metrics["cache.posting_hit_ratio"] =
        wt.HitRatio(a.warm, [](const QS& s) { return s.posting_cache; });
    metrics["cache.thesaurus_hit_ratio"] =
        wt.HitRatio(a.warm, [](const QS& s) { return s.thesaurus_cache; });
    metrics["cache.record_hit_ratio"] =
        wt.HitRatio(a.warm, [](const QS& s) { return s.path_record_cache; });
    metrics["cache.lookup_hit_ratio"] =
        wt.HitRatio(a.warm, [](const QS& s) { return s.path_lookup_cache; });

    const RegistryDelta& glob = p.global;
    const double pool_hits = glob.Counter("sama_buffer_pool_hits_total");
    const double pool_misses = glob.Counter("sama_buffer_pool_misses_total");
    metrics["storage.pool_hit_ratio"] =
        Ratio(pool_hits, pool_hits + pool_misses);
    metrics["storage.pool_misses"] = pool_misses;
    metrics["storage.bytes_read"] = static_cast<double>(p.bytes_read);
    metrics["storage.pin_retries"] =
        glob.Counter("sama_buffer_pool_pin_retries_total");

    const WriterOutcome& wr = p.writer;
    const double acked = static_cast<double>(wr.acked);
    metrics["update.lock_wait_ms"] = Quantile(wr.lock_wait_ms, 0.5);
    metrics["wal.append_ms"] = Quantile(wr.append_ms, 0.5);
    metrics["wal.fsync_ms"] = Quantile(wr.fsync_ms, 0.5);
    metrics["wal.apply_ms"] = Quantile(wr.apply_ms, 0.5);
    metrics["wal.checkpoint_ms"] = Mean(wr.checkpoint_ms);
    metrics["wal.checkpoints"] = reg.Counter("sama_update_checkpoints_total");
    if (w.writable) {
      metrics["wal.fsyncs_per_update"] =
          Ratio(reg.Counter("sama_wal_fsyncs_total"), acked);
      metrics["wal.bytes_per_update"] =
          Ratio(reg.Counter("sama_wal_appended_bytes_total"), acked);
    }
    metrics["wal.replay_ms"] = replay_ms;
    metrics["update.writer_lag_ms"] = Mean(wr.lag_ms);

    double heavy_expansions = 0;
    if (w.shards != 0) {
      metrics["shard.scatter_ms"] =
          reg.HistMean("sama_shard_phase_millis{phase=\"scatter\"}");
      metrics["shard.search_ms"] =
          reg.HistMean("sama_shard_phase_millis{phase=\"search\"}");
      metrics["shard.merge_ms"] =
          reg.HistMean("sama_shard_phase_millis{phase=\"merge\"}");
      metrics["shard.expansions"] = expansions;
      // The same queries over one index of the same graph: the shard
      // layer's extra work is the difference.
      const Workload single = Workloads()[1];
      Instance one;
      SetupTimes unused;
      s = SetUp(single, in, thesaurus, (tmp / "single").string(), false, tl,
                &one, &unused);
      if (!s.ok()) return fail("single-index set-up", s);
      for (const MixQuery& q : in.mix) {
        sama::QueryStats stats;
        auto payload = DirectPayload(one, q, &stats);
        if (!payload.ok()) return fail("single-index query", payload.status());
        heavy_expansions +=
            q.weight * static_cast<double>(stats.search_expansions);
      }
    }

    metrics["setup.index_build_s"] =
        median_of([](const SetupTimes& t) { return t.build_s; });
    metrics["setup.graph_s"] =
        median_of([](const SetupTimes& t) { return t.graph_s; });
    metrics["setup.index_open_s"] =
        median_of([](const SetupTimes& t) { return t.open_s; });
    metrics["setup.engine_s"] =
        median_of([](const SetupTimes& t) { return t.engine_s; });
    metrics["setup.updates_s"] =
        median_of([](const SetupTimes& t) { return t.updates_s; });
    metrics["setup.server_start_s"] =
        median_of([](const SetupTimes& t) { return t.server_s; });
    metrics["mem.setup_rss_mb"] = setup_rss_mb;
    metrics["obs.trace_overhead"] =
        Ratio(Quantile(p.QueryRtts(), 0.5), Quantile(e2e.QueryRtts(), 0.5));

    double lowest_warm_hit_ratio = 1;
    for (auto cache : {&QS::posting_cache, &QS::path_lookup_cache,
                       &QS::path_record_cache, &QS::label_match_cache,
                       &QS::alignment_memo, &QS::thesaurus_cache}) {
      double lookups = wt.Sum(a.warm, [&](const QS& s) {
        return static_cast<double>((s.*cache).lookups());
      });
      if (lookups > 0) {
        lowest_warm_hit_ratio = std::min(
            lowest_warm_hit_ratio,
            wt.HitRatio(a.warm, [&](const QS& s) { return s.*cache; }));
      }
    }
    PrintRegimes(w, metrics,
                 Ratio(layers.MeanTotal("search", queries), engine_ms),
                 lowest_warm_hit_ratio, heavy_expansions);
    WriteLayerFiles(layers, log, args.out_dir, tag);
  }
  metrics["peak_rss_mb"] = ProcStatusMiB("VmHWM");

  // The environment, so a noisy run explains itself from its own output.
  std::printf(
      "env: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"build_type\": "
      "\"%s\", \"source_digest\": \"%s\", \"steal_share\": %s, "
      "\"kept_share\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      SERVEBENCH_BUILD_TYPE, JsonEscape(args.source_digest).c_str(),
      Num((args.trace ? traced : untraced).steal).c_str(),
      Num(Ratio(e2e.kept_s, e2e.elapsed_s)).c_str());
  {
    std::vector<double> totals;
    for (const SetupTimes& t : reps) totals.push_back(t.total_s());
    const auto split =
        totals.begin() + static_cast<std::ptrdiff_t>(early_setups);
    std::printf("setup: setup_s is the median of %zu set-ups: %s s "
                "(quartiles %s to %s s; medians %s s before the timed phase, "
                "%s s after), steal share over them %s\n",
                totals.size(), Num(setup_s).c_str(),
                Num(Quantile(totals, 0.25)).c_str(),
                Num(Quantile(totals, 0.75)).c_str(),
                Num(Median({totals.begin(), split})).c_str(),
                Num(Median({split, totals.end()})).c_str(),
                Num(StealShare(CpuTimes{}, setup_cpu)).c_str());
  }
  {
    std::string line;
    for (uint32_t i = 0; i < in.mix.size(); ++i) {
      const std::vector<double> v = e2e.MixRtts(i);
      line += (i ? ", " : "") + in.mix[i].name + " " +
              Num(Quantile(v, 0.5)) + " ms (" + std::to_string(v.size()) +
              ")";
    }
    std::printf("mix: p50 round trip per query (samples): %s\n",
                line.c_str());
  }
  std::printf("tail: query_tail_ms is p%s over %zu samples (%zu beyond); "
              "update_tail_ms is p%s over %zu samples (%zu beyond)\n",
              Num(w.tail * 100).c_str(), rtts.size(),
              SamplesBeyond(rtts.size(), w.tail),
              Num(update_tail * 100).c_str(), update_ms.size(),
              SamplesBeyond(update_ms.size(), update_tail));
  fs::remove_all(tmp);

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(*defs, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload light|heavy|shard4|rw --seed N "
                 "--seconds S --trace 0|1 --tmp-dir DIR --out-dir DIR "
                 "[--source-digest HEX]\n",
                 argv[0]);
    return 2;
  }
  return servebench::Run(args);
}
