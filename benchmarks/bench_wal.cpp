// Durable-update path benchmark (DESIGN.md §12): WAL append throughput
// in both fsync regimes, group-commit flush cost, checkpoint cost, and
// cold recovery (journal replay) speed — the numbers that bound how
// fast a writable serving node can ingest and how long it is offline
// after a crash.
//
// Phases over a disk-backed GovTrack index:
//   1. deferred appends:  --updates inserts with durable=false (the
//      group-commit regime; one FlushUpdates pays the single fsync)
//   2. durable appends:   --durable-updates inserts with durable=true
//      (an fsync per ack — the floor a per-request durability client
//      sees)
//   3. checkpoint:        one CheckpointUpdates over the applied state
//   4. recovery:          more deferred appends (so the journal has a
//      tail past the checkpoint), tear the engine down, reopen + replay
//
// The exit status is the gate. Every phase is gated on correctness
// before timing is believed: the recovered LSN must equal the number of
// appends, and the verifier must report the store clean after recovery.
// Deferred-fsync appends must also reach kMinAppendsPerSec. --json=FILE
// writes the numbers as a JSON artifact.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "datasets/govtrack.h"
#include "index/index_verify.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

// Floor on deferred-fsync append throughput. Group commit exists so
// that ingest is not bound by fsync latency; a change that puts an
// fsync (or a lock convoy) back on every append drops far below it on
// any machine.
constexpr double kMinAppendsPerSec = 500.0;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

struct Options {
  size_t updates = 2000;          // Deferred-fsync appends (phase 1).
  size_t durable_updates = 128;   // Fsync-per-ack appends (phase 2).
  size_t recovery_updates = 512;  // Journal tail replayed in phase 4.
  size_t segment_bytes = 1 << 20;
  uint64_t seed = 42;
  std::string json_path;
};

Term Gov(const std::string& local) {
  return Term::Iri("http://gov.example.org/" + local);
}

// Insert-only workload: brand-new persons attached to the base bills
// (new sources, so every append exercises real incremental index
// maintenance, not no-ops). Deletes are covered by the torture tests;
// a throughput bench wants a uniform op.
std::vector<TripleUpdate> MakeWorkload(uint64_t seed, size_t n,
                                       const char* tag) {
  const std::vector<Term> bills = {Gov("B1432"), Gov("B0532"),
                                   Gov("B0045")};
  std::vector<TripleUpdate> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = seed * 6364136223846793005ull + i;
    Triple t{Gov(std::string(tag) + std::to_string(i)),
             r % 2 == 0 ? Gov("sponsor") : Gov("gender"), Term()};
    t.object = t.predicate == Gov("gender") ? Term::Literal("Male")
                                            : bills[r % bills.size()];
    ops.push_back({TripleUpdate::Op::kInsert, t});
  }
  return ops;
}

uint64_t WalDirBytes(const std::string& index_dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(index_dir + "/wal", ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Applies `ops` with the given durability, dying on the first failure
// (a failed append invalidates every number downstream of it).
void ApplyAll(const SamaEngine& engine, std::vector<TripleUpdate> ops,
              bool durable, const char* phase) {
  for (TripleUpdate& op : ops) {
    op.durable = durable;
    auto lsn = engine.ApplyUpdate(op);
    if (!lsn.ok()) {
      std::fprintf(stderr, "%s append failed: %s\n", phase,
                   lsn.status().ToString().c_str());
      std::exit(1);
    }
  }
}

struct Summary {
  size_t updates = 0;            // Total appends across all phases.
  double appends_per_sec = 0;    // Phase 1 (deferred fsync).
  double flush_ms = 0;           // The one group-commit fsync.
  double durable_appends_per_sec = 0;  // Phase 2 (fsync per ack).
  double checkpoint_ms = 0;
  double recovery_ms = 0;        // Cold Open + EnableUpdates replay.
  double replay_mb_per_sec = 0;  // Journal-tail bytes over recovery.
  uint64_t wal_tail_bytes = 0;   // Bytes the recovery had to replay.
  size_t replay_errors = 0;      // Lost/extra LSNs + verify findings.
};

void WriteJson(const std::string& path, const Options& options,
               const Summary& s) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"wal\",\n"
               "  \"segment_bytes\": %zu,\n  \"seed\": %llu,\n"
               "  \"summary\": {\n"
               "    \"updates\": %zu,\n"
               "    \"appends_per_sec\": %.2f,\n"
               "    \"flush_ms\": %.4f,\n"
               "    \"durable_appends_per_sec\": %.2f,\n"
               "    \"checkpoint_ms\": %.4f,\n"
               "    \"recovery_ms\": %.4f,\n"
               "    \"replay_mb_per_sec\": %.2f,\n"
               "    \"wal_tail_bytes\": %llu,\n"
               "    \"replay_errors\": %zu\n  },\n"
               "  \"queries\": []\n}\n",
               options.segment_bytes,
               static_cast<unsigned long long>(options.seed),
               s.updates, FiniteOr(s.appends_per_sec),
               FiniteOr(s.flush_ms),
               FiniteOr(s.durable_appends_per_sec),
               FiniteOr(s.checkpoint_ms), FiniteOr(s.recovery_ms),
               FiniteOr(s.replay_mb_per_sec),
               static_cast<unsigned long long>(s.wal_tail_bytes),
               s.replay_errors);
  std::fclose(f);
}

int Run(const Options& options) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "sama_bench_wal")
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndexOptions po;
  po.dir = dir;
  auto index = std::make_unique<PathIndex>();
  Status built = index->Build(graph, po);
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  auto engine = std::make_unique<SamaEngine>(&graph, index.get(),
                                             &thesaurus);
  UpdateOptions uo;
  uo.segment_bytes = options.segment_bytes;
  uo.checkpoint_every = 0;  // Checkpoints are timed explicitly.
  Status enabled = engine->EnableUpdates(&graph, index.get(), uo);
  if (!enabled.ok()) {
    std::fprintf(stderr, "EnableUpdates failed: %s\n",
                 enabled.ToString().c_str());
    return 1;
  }

  Summary summary;

  // Phase 1: deferred-fsync appends, then the one group-commit flush.
  std::fprintf(stderr, "phase 1: %zu deferred appends...\n",
               options.updates);
  {
    auto ops = MakeWorkload(options.seed, options.updates, "Pd");
    Clock::time_point t0 = Clock::now();
    ApplyAll(*engine, std::move(ops), /*durable=*/false, "deferred");
    double ms = MillisSince(t0);
    summary.appends_per_sec =
        ms > 0 ? options.updates / (ms / 1000.0) : 0;
    t0 = Clock::now();
    Status flushed = engine->FlushUpdates();
    summary.flush_ms = MillisSince(t0);
    if (!flushed.ok()) {
      std::fprintf(stderr, "flush failed: %s\n",
                   flushed.ToString().c_str());
      return 1;
    }
  }

  // Phase 2: fsync-per-ack appends.
  std::fprintf(stderr, "phase 2: %zu durable appends...\n",
               options.durable_updates);
  {
    auto ops =
        MakeWorkload(options.seed + 1, options.durable_updates, "Ps");
    Clock::time_point t0 = Clock::now();
    ApplyAll(*engine, std::move(ops), /*durable=*/true, "durable");
    double ms = MillisSince(t0);
    summary.durable_appends_per_sec =
        ms > 0 ? options.durable_updates / (ms / 1000.0) : 0;
  }

  // Phase 3: checkpoint everything applied so far, so the recovery
  // phase replays exactly the tail written after it.
  std::fprintf(stderr, "phase 3: checkpoint...\n");
  {
    Clock::time_point t0 = Clock::now();
    Status ck = engine->CheckpointUpdates();
    summary.checkpoint_ms = MillisSince(t0);
    if (!ck.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   ck.ToString().c_str());
      return 1;
    }
  }

  // Phase 4: a journal tail past the checkpoint, teardown, cold reopen.
  std::fprintf(stderr, "phase 4: recovery over %zu-record tail...\n",
               options.recovery_updates);
  uint64_t bytes_before_tail = WalDirBytes(dir);
  {
    auto ops = MakeWorkload(options.seed + 2, options.recovery_updates,
                            "Pr");
    ApplyAll(*engine, std::move(ops), /*durable=*/false, "tail");
    Status flushed = engine->FlushUpdates();
    if (!flushed.ok()) {
      std::fprintf(stderr, "tail flush failed: %s\n",
                   flushed.ToString().c_str());
      return 1;
    }
  }
  summary.wal_tail_bytes = WalDirBytes(dir) - bytes_before_tail;
  const uint64_t want_lsn = engine->last_update_lsn();
  summary.updates =
      options.updates + options.durable_updates + options.recovery_updates;
  engine.reset();
  index.reset();

  DataGraph recovered_graph =
      DataGraph::FromTriples(GovTrackFigure1Triples());
  auto recovered = std::make_unique<PathIndex>();
  SamaEngine recovered_engine(&recovered_graph, recovered.get(),
                              &thesaurus);
  {
    Clock::time_point t0 = Clock::now();
    Status opened = recovered->Open(&recovered_graph, po);
    Status replayed =
        opened.ok()
            ? recovered_engine.EnableUpdates(&recovered_graph,
                                             recovered.get(), uo)
            : opened;
    summary.recovery_ms = MillisSince(t0);
    if (!replayed.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   replayed.ToString().c_str());
      return 1;
    }
  }
  summary.replay_mb_per_sec =
      summary.recovery_ms > 0
          ? (summary.wal_tail_bytes / (1024.0 * 1024.0)) /
                (summary.recovery_ms / 1000.0)
          : 0;

  // Correctness gate: no acked LSN may be missing, and the verifier
  // must find the recovered store clean.
  if (recovered_engine.last_update_lsn() != want_lsn) {
    std::fprintf(stderr, "recovered lsn %llu != acked %llu\n",
                 static_cast<unsigned long long>(
                     recovered_engine.last_update_lsn()),
                 static_cast<unsigned long long>(want_lsn));
    ++summary.replay_errors;
  }
  auto report = VerifyIndexDir(dir);
  if (!report.ok()) {
    std::fprintf(stderr, "verify failed to scan: %s\n",
                 report.status().ToString().c_str());
    ++summary.replay_errors;
  } else if (!report->clean()) {
    std::fprintf(stderr, "verify found %llu error(s) after recovery:\n%s",
                 static_cast<unsigned long long>(report->error_count()),
                 report->ToString().c_str());
    summary.replay_errors +=
        static_cast<size_t>(report->error_count()) + 1;
  }

  std::printf("updates=%zu segment_bytes=%zu\n", summary.updates,
              options.segment_bytes);
  std::printf("appends/s=%.1f (deferred, flush=%.3fms)  "
              "durable appends/s=%.1f\n",
              summary.appends_per_sec, summary.flush_ms,
              summary.durable_appends_per_sec);
  std::printf("checkpoint=%.3fms  recovery=%.3fms over %llu tail bytes "
              "(%.2f MB/s)\n",
              summary.checkpoint_ms, summary.recovery_ms,
              static_cast<unsigned long long>(summary.wal_tail_bytes),
              summary.replay_mb_per_sec);
  std::printf("replay_errors=%zu\n", summary.replay_errors);
  const bool too_slow = summary.appends_per_sec < kMinAppendsPerSec;
  if (too_slow) {
    std::fprintf(stderr, "appends/s %.1f below the floor of %.0f\n",
                 summary.appends_per_sec, kMinAppendsPerSec);
  }

  if (!options.json_path.empty()) {
    WriteJson(options.json_path, options, summary);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  std::filesystem::remove_all(dir);
  return summary.replay_errors == 0 && !too_slow ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace sama

int main(int argc, char** argv) {
  sama::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--updates=")) {
      options.updates = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--durable-updates=")) {
      options.durable_updates = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--recovery-updates=")) {
      options.recovery_updates = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--segment-bytes=")) {
      options.segment_bytes = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--updates=N] [--durable-updates=N] "
                   "[--recovery-updates=N] [--segment-bytes=N] "
                   "[--seed=N] [--json=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.updates == 0 || options.recovery_updates == 0) {
    std::fprintf(stderr, "invalid --updates/--recovery-updates\n");
    return 2;
  }
  return sama::bench::Run(options);
}
