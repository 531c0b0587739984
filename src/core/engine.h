#ifndef SAMA_CORE_ENGINE_H_
#define SAMA_CORE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/forest_search.h"
#include "core/intersection_graph.h"
#include "core/score_params.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "query/sparql.h"
#include "text/thesaurus.h"

namespace sama {

struct EngineInstruments;

// The engine's query-side cache layer: the index caches (candidate
// lists, path records), the shared label-match memo, the alignment
// memo and the forest-search table memo, each bounded by constants next
// to the cache. Every layer is a pure optimisation — answers are
// byte-identical with `enabled = false` (tests/core/engine_cache_test.cc)
// — and no layer can serve a stale result: the clustering caches' keys
// embed the thesaurus content identity, and a memoized table set is
// used only for the exact clusters it was built from. Caches are
// created at engine construction and shared across queries; that
// cross-query reuse is where the warm-path speedup comes from.
struct QueryCacheOptions {
  bool enabled = true;
};

// Observability knobs (DESIGN.md "Observability"). Tracing and the
// slow-query log are per-query artifacts; metrics feed the process-wide
// MetricsRegistry. None of it affects answers: with everything off the
// query path does zero observability work beyond the per-query stats
// QueryStats always carried.
struct ObsOptions {
  // Update registry instruments (sama_* counters/histograms) after each
  // query. Instrument pointers are resolved once at engine
  // construction; the per-query cost is a handful of relaxed atomic
  // adds.
  bool metrics = true;
  // Record a per-query span trace, attached as QueryStats::trace.
  bool trace = false;
  // Assemble a QueryProfile per query (phase tree + resource counters;
  // DESIGN.md "Observability"): forces span recording for the query
  // even when `trace` is off, attaches the profile as
  // QueryStats::profile, and retains the last
  // SamaEngine::kProfileCapacity profiles in the engine's ProfileLog for
  // /debug/profile. Off by default so the hot path stays profile-free.
  bool profile = false;
  // Queries with total_millis >= this threshold are recorded in the
  // slow-query log (a ring of SamaEngine::kSlowQueryCapacity records).
  // <= 0 disables the log.
  double slow_query_millis = 0;
  // Optional JSONL sink for slow-query records, written through `env`
  // (Env::Default() when null) so fault injection covers it.
  std::string slow_query_path;
  Env* env = nullptr;
  // Registry receiving the engine's instruments;
  // MetricsRegistry::Global() when null.
  MetricsRegistry* registry = nullptr;
};

// The per-request inputs of one Execute/ExecuteSparql call (DESIGN.md
// §11, §15). A default context is an ordinary query: no deadline, the
// engine's own obs.trace/obs.profile decide tracing, and nothing is
// stamped into its slow-query record.
struct QueryContext {
  // Absolute steady-clock deadline for the anytime search; the epoch
  // means none. When set it replaces options.search.deadline (see
  // ForestSearchOptions::deadline).
  std::chrono::steady_clock::time_point deadline{};
  // When set, the query appends its spans into this existing trace —
  // the "query" span parents under `parent_span` (the server's request
  // span) instead of being a root — so one propagated trace id
  // collects the wire, shard and WAL spans of everything done on its
  // behalf. Profiling is skipped for such queries (QueryProfile::Build
  // assumes a single-query trace).
  std::shared_ptr<QueryTrace> trace;
  uint64_t parent_span = 0;
  // The propagated identity and server request id, stamped into
  // slow-query records so a slow query is joinable to the client that
  // sent it.
  TraceContext trace_context;
  uint64_t request_id = 0;
};

// Durability knobs for the live-update path (EnableUpdates). The WAL
// lives at "<index dir>/wal", where VerifyIndexDir looks for it; an
// in-memory index therefore rejects EnableUpdates (nothing durable to
// recover into).
struct UpdateOptions {
  uint64_t segment_bytes = 4 * 1024 * 1024;
  // Checkpoint the index and truncate the WAL after this many applied
  // updates; 0 leaves checkpoints to CheckpointUpdates().
  uint64_t checkpoint_every = 1024;
  // Master durability switch: false defers every fsync (bulk loads),
  // regardless of the per-update flag.
  bool durable = true;
  Env* env = nullptr;                   // Env::Default() when null.
  MetricsRegistry* registry = nullptr;  // ObsOptions / Global() when null.
};

// One mutation for ApplyUpdate.
struct TripleUpdate {
  enum class Op : uint8_t { kInsert = 0, kDelete = 1 };
  Op op = Op::kInsert;
  Triple triple;
  // false = journal without fsync (the record rides the next durable
  // update's group commit, a later FlushUpdates, or a checkpoint). An
  // un-synced update can be lost to a crash — it is never acked as
  // durable, so the server only sets this when the client asked.
  bool durable = true;
};

struct EngineOptions {
  ScoreParams params;
  ClusteringOptions clustering;
  ForestSearchOptions search;
  QueryCacheOptions cache;
  ObsOptions obs;
  // Threads used for intra-query parallelism (candidate scoring and
  // per-cluster forest search). 0 = hardware concurrency; 1 =
  // sequential. Answers are bit-identical for every value — the knob
  // only trades wall-clock time. Read at engine construction (the
  // worker pool is built once and shared across queries).
  size_t num_threads = 1;
};

// Per-query timing/size breakdown matching the paper's phases (§5).
struct QueryStats {
  double preprocess_millis = 0;  // PQ + intersection query graph.
  double clustering_millis = 0;
  double search_millis = 0;
  double total_millis = 0;
  size_t num_query_paths = 0;
  size_t num_candidate_paths = 0;  // I: paths retrieved by the index.
  size_t num_answers = 0;

  // Parallel execution: threads available to the query (1 =
  // sequential) and, per parallel phase, the summed time all threads
  // spent inside the phase's work items. busy / elapsed estimates the
  // phase's effective speedup; ~1.0 means the phase ran serially.
  size_t threads_used = 1;
  double clustering_busy_millis = 0;
  double search_busy_millis = 0;

  // Epoch-based-reclamation activity during this query (global
  // manager deltas, so concurrent queries' retires show up too — these
  // are a concurrency health signal, not per-query attribution like
  // the cache counters below): epoch advances observed, objects
  // retired (deferred frees queued) and reclaimed (actually freed).
  // All zero in a quiescent single-query run that never grows a table
  // or evicts a frame.
  uint64_t epoch_advances = 0;
  uint64_t epoch_retired = 0;
  uint64_t epoch_reclaimed = 0;

  // Degraded-read accounting (ClusteringOptions::strict_io == false):
  // candidates dropped because their pages were corrupt or unreadable,
  // and transient-read retries that were attempted. Both stay 0 on a
  // healthy index.
  uint64_t corrupt_records_skipped = 0;
  uint64_t io_retries = 0;

  // Query-side cache activity during THIS query, attributed through
  // per-query scoped counter sinks (QueryCacheDeltas) — NOT by diffing
  // the shared lifetime counters, which would absorb concurrent
  // queries' traffic. All zero when caching is disabled
  // (QueryCacheOptions::enabled == false). posting_cache is always
  // zero — the label index keeps no memo; the candidate-list memo sits
  // in front of it — and stays only for readers that report it.
  CacheCounters posting_cache;
  CacheCounters path_lookup_cache;  // Candidate-list lookups.
  CacheCounters path_record_cache;  // GetPath records.
  CacheCounters label_match_cache;  // Shared label-pair matches.
  CacheCounters alignment_memo;     // Memoized path alignments.
  CacheCounters thesaurus_cache;    // AreRelated BFS memo.
  // The forest-search table memo: a hit is a memoized table set whose
  // clusters equal this query's; a stale entry counts as a miss.
  CacheCounters search_tables;

  // Forest-search branch-and-bound accounting
  // (ScoreParams::prune_search); pruning counters stay zero in the
  // exhaustive ablation.
  uint64_t search_expansions = 0;
  uint64_t search_bound_pruned = 0;
  uint64_t search_roots_pruned = 0;
  // Shards that were unusable (damaged index or sidecar) and therefore
  // contributed no candidates to this query (ShardedEngine); 0 on a
  // healthy shard set and always 0 for single-index engines.
  uint64_t shards_degraded = 0;
  // True when the anytime budget cut the combination space short (a
  // subtree exhausted its share, or subtrees went unexamined); while
  // false the ranked answers are provably exact, pruning or not.
  bool search_truncated = false;
  double SearchPruningRatio() const {
    double skipped =
        static_cast<double>(search_bound_pruned + search_roots_pruned);
    double considered = skipped + static_cast<double>(search_expansions);
    return considered == 0 ? 0.0 : skipped / considered;
  }

  // busy/elapsed, clamped finite and to [0, threads_used]: a trivial
  // query's elapsed time underflows toward zero, and the raw ratio then
  // leaks inf/nan into --stats output and bench JSON.
  static double PhaseSpeedup(double busy_millis, double elapsed_millis,
                             size_t threads) {
    if (!(elapsed_millis > 1e-6) || !(busy_millis >= 0)) return 1.0;
    double s = busy_millis / elapsed_millis;
    if (!std::isfinite(s)) return 1.0;
    double cap = threads == 0 ? 1.0 : static_cast<double>(threads);
    return std::min(s, cap);
  }
  double ClusteringSpeedup() const {
    return PhaseSpeedup(clustering_busy_millis, clustering_millis,
                        threads_used);
  }
  double SearchSpeedup() const {
    return PhaseSpeedup(search_busy_millis, search_millis, threads_used);
  }

  // The query's span trace; non-null only when ObsOptions::trace was
  // set. Shared so copies of the stats stay cheap.
  std::shared_ptr<const QueryTrace> trace;

  // The query's assembled profile; non-null only when
  // ObsOptions::profile was set. Also retained by the engine's
  // ProfileLog (its id() is the /debug/profile retention id).
  std::shared_ptr<const QueryProfile> profile;
};

// One index a query clusters against (DESIGN.md §14): a PathIndex, or
// one live shard of a ShardedIndex together with that shard's map from
// local to global path ids.
struct IndexSlice {
  const PathIndex* index = nullptr;
  // Global id of each local path id; null when the index's ids are
  // already global (a single PathIndex).
  const std::vector<PathId>* global_ids = nullptr;
  // The shard number, naming the slice's shard-N.cluster span.
  size_t shard = 0;
};

// The end-to-end Sama query processor (§5): preprocessing → clustering
// → search over pre-built index slices. Stateless across queries apart
// from the shared dictionary, which grows as query constants are
// interned.
class SamaEngine {
 public:
  // All pointers are borrowed and must outlive the engine; `thesaurus`
  // may be null to disable semantic matching.
  // Construction also installs the query-side caches (options.cache)
  // on `index` — note that a second engine constructed over the SAME
  // index reconfigures those shared index caches with ITS options.
  SamaEngine(const DataGraph* graph, const PathIndex* index,
             const Thesaurus* thesaurus, EngineOptions options = {});

  // Ring sizes of the profile log and the slow-query log.
  static constexpr size_t kProfileCapacity = 16;
  static constexpr size_t kSlowQueryCapacity = 128;

  // Runs a parsed SPARQL query; `k` overrides options.search.k when
  // non-zero, else the query's LIMIT applies, else the option default.
  // Answers are deduplicated on the SELECT variables (projection
  // semantics) unless the query selects *, and its FILTERs apply.
  Result<std::vector<Answer>> ExecuteSparql(
      const SparqlQuery& query, size_t k = 0, QueryStats* stats = nullptr,
      const QueryContext& ctx = {}) const;

  // Runs an already-built query graph. The query graph must have been
  // built over this engine's shared dictionary (see BuildQueryGraph).
  Result<std::vector<Answer>> Execute(const QueryGraph& query, size_t k,
                                      QueryStats* stats = nullptr,
                                      const QueryContext& ctx = {}) const;

  // Builds a query graph sharing the data graph's dictionary.
  QueryGraph BuildQueryGraph(const std::vector<Triple>& patterns) const {
    return QueryGraph::FromPatterns(patterns, graph_->shared_dict());
  }

  const EngineOptions& options() const { return options_; }
  const DataGraph& graph() const { return *graph_; }
  const Thesaurus* thesaurus() const { return thesaurus_; }

  // Threads executing each query: pool workers + the calling thread.
  size_t threads_used() const {
    return pool_ == nullptr ? 1 : pool_->worker_count() + 1;
  }

  // Drops every query-side cache entry (engine-owned memos AND the
  // index's caches) without resizing them — cold-cache experiments, or
  // a cold search: the next query of every shape rebuilds its tables.
  void DropQueryCaches() const;

  // ---------------- Durable live updates (DESIGN.md §12) -------------
  //
  // Turns on the WAL-backed mutation path. `graph` and `index` must be
  // the same objects the engine was constructed over (the const
  // pointers gate queries; these mutable ones gate writes); a
  // ShardedEngine is read-only and always refuses. Opens the
  // WAL, then replays every record past the index's checkpoint LSN with
  // idempotent redo — after any crash the reconstructed state answers
  // queries byte-identically to a fresh offline build over the same
  // logical triple set. Call before serving: the update state is shared
  // by engine copies made AFTER this call.
  Status EnableUpdates(DataGraph* graph, PathIndex* index,
                       UpdateOptions options = {});
  bool updates_enabled() const { return updates_ != nullptr; }
  // Whether the update path fsyncs at all (UpdateOptions::durable);
  // false when updates are disabled. The server reports this in acks.
  bool updates_durable() const;

  // Applies one mutation: journal → fsync (unless deferred) → apply to
  // graph + index under the exclusive update lock (queries take the
  // lock shared, so an update orders strictly against them). Returns
  // the update's LSN; once returned with durable semantics the update
  // survives any crash. Duplicate inserts and absent deletes are
  // journalled no-ops. Const because it mutates the shared update
  // state, not the engine value (same precedent as the query caches) —
  // the server holds the engine const.
  Result<uint64_t> ApplyUpdate(const TripleUpdate& update) const;
  // Traced variant: records wal.append / wal.fsync / wal.apply (and
  // wal.checkpoint when one triggers) spans into `trace`, parented
  // under `parent_span` — the server's request span, so a propagated
  // trace shows where an update's time went. Null trace = untraced.
  Result<uint64_t> ApplyUpdate(const TripleUpdate& update, QueryTrace* trace,
                               uint64_t parent_span) const;
  Result<uint64_t> InsertTriple(const Triple& triple) const;
  Result<uint64_t> DeleteTriple(const Triple& triple) const;

  // Fsyncs every journalled-but-unsynced record (deferred-durability
  // updates). The server calls this before acknowledging SHUTDOWN so an
  // acked update is never lost.
  Status FlushUpdates() const;

  // Checkpoints the index (stores + metadata, recording the WAL
  // position) and truncates obsolete WAL segments.
  Status CheckpointUpdates() const;

  // LSN of the last applied update; 0 before any. Also the position a
  // crash-free reopen would NOT need to replay past.
  uint64_t last_update_lsn() const;

  // Span trace of the EnableUpdates recovery (wal.recovery/wal.replay);
  // null before EnableUpdates.
  std::shared_ptr<const QueryTrace> recovery_trace() const;

  // Every failpoint the update/checkpoint/recovery path passes through
  // (WAL points included) — the crash-at-every-point test matrix.
  static std::vector<std::string> UpdateCrashPoints();

  // The slow-query log, when ObsOptions::slow_query_millis > 0; null
  // otherwise. Shared by copies of the engine.
  const SlowQueryLog* slow_query_log() const { return slow_log_.get(); }

  // The retained-profile ring, when ObsOptions::profile is set; null
  // otherwise. Shared by copies of the engine.
  const ProfileLog* profile_log() const { return profile_log_.get(); }

 protected:
  // An engine over several slices (ShardedEngine): each query clusters
  // against every slice, merges the clusters in the global id space
  // and runs one forest search over them. `shards_degraded` is reported
  // in every query's QueryStats.
  SamaEngine(const DataGraph* graph, std::vector<IndexSlice> slices,
             uint64_t shards_degraded, const Thesaurus* thesaurus,
             EngineOptions options);

 private:
  struct UpdateState;  // Defined in engine.cc (owns the Wal).
  struct SearchTableMemo;  // Defined in engine.cc.
  // A slice plus its alignment memo: the memo keys on the slice's
  // local path ids, which every shard numbers from 0.
  struct Slice {
    IndexSlice source;
    std::unique_ptr<AlignmentMemo> alignment_memo;
  };

  // Execute with the search options `search` (ExecuteSparql's carry
  // its projection dedup and FILTERs).
  Result<std::vector<Answer>> Run(const QueryGraph& query,
                                  ForestSearchOptions search, size_t k,
                                  QueryStats* stats,
                                  const QueryContext& ctx) const;

  // The search tables for `clusters`: the memo's entry for the query
  // shape when it was built from these clusters (`*reused`), else a
  // fresh build. Counts the lookup into `counters`.
  Result<std::shared_ptr<const SearchTables>> SearchTablesFor(
      const QueryGraph& query, const IntersectionQueryGraph& ig,
      const std::vector<Cluster>& clusters, bool require_connected,
      std::atomic<uint64_t>* busy_nanos, CacheCounters* counters,
      bool* reused) const;

  const DataGraph* graph_;
  const Thesaurus* thesaurus_;
  EngineOptions options_;
  std::shared_ptr<ThreadPool> pool_;
  // Registry instruments resolved once at construction (obs.metrics);
  // null when metrics are off. Incomplete here; defined in engine.cc.
  std::shared_ptr<EngineInstruments> instruments_;
  std::shared_ptr<SlowQueryLog> slow_log_;
  std::shared_ptr<ProfileLog> profile_log_;
  // The index slices with their memos, shared by copies of the engine;
  // degraded shards of a sharded index have none.
  std::shared_ptr<const std::vector<Slice>> slices_;
  uint64_t shards_degraded_ = 0;
  // Engine-owned cross-query memo, shared like the slices.
  std::shared_ptr<ShardedLruCache<uint64_t, LabelMatch>> label_cache_;
  // The thesaurus content identity the label cache's entries were
  // computed under; a mismatch at query time (the thesaurus was
  // mutated) clears the cache. The alignment memo embeds the identity
  // in its keys and needs no such check.
  std::shared_ptr<std::atomic<uint64_t>> label_cache_identity_;
  // Engine-owned forest-search table memo, shared like the slices; null
  // when caching is off.
  std::shared_ptr<SearchTableMemo> table_memo_;
  // Live-update state (WAL + mutable graph/index + the update lock);
  // null until EnableUpdates. Shared by engine copies so one lock
  // orders updates against every copy's queries.
  std::shared_ptr<UpdateState> updates_;
};

}  // namespace sama

#endif  // SAMA_CORE_ENGINE_H_
