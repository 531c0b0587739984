#include "core/engine.h"

#include <shared_mutex>

#include "common/timer.h"
#include "storage/triple_codec.h"
#include "storage/wal.h"

namespace sama {

namespace {

// Entries of the engine-owned memos (QueryCacheOptions).
constexpr size_t kLabelMatchEntries = 1 << 16;
constexpr size_t kAlignmentMemoEntries = 1 << 15;
// The search-table memo's bounds: at most kSearchTableEntries table sets,
// each of at most kSearchTableMaxBytes (a larger set serves its own
// query and is not stored). Its resident bytes are therefore at most
// 32 x 2 MiB = 64 MiB, plus one evicted set per running search. LUBM-1
// Q6-Q12 store 5.4 MB (Q12's 1.7 MB is the largest), LUBM-50 Q1-Q5
// 4.1 MB (Q5's 1.9 MB).
constexpr size_t kSearchTableEntries = 32;
constexpr size_t kSearchTableMaxBytes = size_t{2} << 20;

// How long the pool's workers, and a query thread waiting for them, poll
// before they block (ThreadPool). A query runs several parallel sections
// (clustering, the forest-search tables, each search wave), most of them
// under 200 us apart; a helper that spins through the gap needs no
// wake-up, and on a busy 4-vCPU virtual machine wake-ups took 300-460 us
// on average and halved served LUBM throughput for seconds at a time.
constexpr std::chrono::microseconds kPoolSpin{500};

// Merges per-slice clusters, already in global path ids and each sorted
// by (λ, id), into the single-index candidate lists: concatenate,
// re-sort by (λ, global id) — the slices' path sets are disjoint, so
// this is exactly the unsharded order — and re-apply the per-cluster
// cap (the global top-cap is a subset of the union of the per-slice
// top-caps, so nothing it needs was dropped by a slice).
std::vector<Cluster> MergeSliceClusters(
    std::vector<std::vector<Cluster>> sliced, size_t cap) {
  std::vector<Cluster> merged = std::move(sliced[0]);
  for (size_t i = 1; i < sliced.size(); ++i) {
    for (size_t j = 0; j < merged.size(); ++j) {
      for (ScoredPath& sp : sliced[i][j].paths) {
        merged[j].paths.push_back(std::move(sp));
      }
    }
  }
  for (Cluster& c : merged) {
    std::sort(c.paths.begin(), c.paths.end(),
              [](const ScoredPath& a, const ScoredPath& b) {
                if (a.lambda() != b.lambda()) return a.lambda() < b.lambda();
                return a.id < b.id;
              });
    if (cap != 0 && c.paths.size() > cap) c.paths.resize(cap);
  }
  return merged;
}

// The search-table memo key of a query shape: require_connected, then
// each query path's node ids, node labels and edge labels — all the
// tables read of the query (the intersection query graph is a function
// of the paths' node ids). k, dedup, FILTER, the budget and the
// deadline are search options and never enter the tables.
std::string SearchTableKey(const QueryGraph& query, bool require_connected) {
  std::string key(1, require_connected ? '1' : '0');
  auto put = [&key](uint32_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const Path& p : query.paths()) {
    put(static_cast<uint32_t>(p.nodes.size()));
    for (NodeId n : p.nodes) put(n);
    for (TermId t : p.node_labels) put(t);
    for (TermId t : p.edge_labels) put(t);
  }
  return key;
}

}  // namespace

// The forest-search table memo (DESIGN.md §8): per query shape, the
// table set a search of that shape built. An entry is used only when
// the query's fresh clusters hold exactly the (path id, λ) sequences it
// was built from (SearchTablesMatch). Any other difference — an update,
// a thesaurus change, a degraded read — erases the entry, and the next
// query of the shape stores its own build, so nothing has to notify the
// memo of a change.
struct SamaEngine::SearchTableMemo {
  ShardedLruCache<std::string, std::shared_ptr<const SearchTables>> cache{
      kSearchTableEntries};
  // Bytes of the stored table sets still alive: in the memo, or evicted
  // and still held by a running search.
  std::shared_ptr<std::atomic<size_t>> resident =
      std::make_shared<std::atomic<size_t>>(0);

  void Store(const std::string& key,
             std::shared_ptr<const SearchTables> tables,
             CacheCounters* counters) {
    const size_t bytes = SearchTablesBytes(*tables);
    resident->fetch_add(bytes, std::memory_order_relaxed);
    // The stored pointer shares `tables` and returns its bytes when the
    // last holder lets go.
    const SearchTables* raw = tables.get();
    std::shared_ptr<const SearchTables> counted(
        raw, [tables = std::move(tables), resident = resident,
              bytes](const SearchTables*) {
          resident->fetch_sub(bytes, std::memory_order_relaxed);
        });
    cache.Put(key, std::move(counted), counters);
    cache.Reclaim();  // An evicted or overwritten set is megabytes.
  }

  void Erase(const std::string& key) {
    cache.EraseIf([&key](const std::string& stored) { return stored == key; });
    cache.Reclaim();
  }
};

// The engine's named registry instruments, resolved once per engine.
// Naming scheme (DESIGN.md "Observability"): sama_<noun>_total for
// counters, sama_<noun>_millis for latency histograms; per-cache series
// share one family distinguished by the {cache="..."} label.
struct EngineInstruments {
  Counter* queries = nullptr;
  Counter* answers = nullptr;
  Histogram* latency = nullptr;
  Histogram* phase_preprocess = nullptr;
  Histogram* phase_clustering = nullptr;
  Histogram* phase_search = nullptr;
  Counter* expansions = nullptr;
  Counter* bound_pruned = nullptr;
  Counter* roots_pruned = nullptr;
  Counter* truncated = nullptr;
  Counter* io_retries = nullptr;
  Counter* corrupt_skipped = nullptr;
  Counter* slow_queries = nullptr;
  Counter* slow_sink_failures = nullptr;
  Counter* epoch_advances = nullptr;
  Counter* epoch_retired = nullptr;
  Counter* epoch_reclaimed = nullptr;
  // Absolute lifetime total, refreshed after each query (Set, not
  // Increment — the sum spans caches owned by engine, index and
  // thesaurus, so deltas would double-count across engines sharing
  // one index).
  Gauge* cache_lock_skips = nullptr;
  // The search-table memo's resident bytes, refreshed after each query.
  Gauge* search_table_bytes = nullptr;

  struct CacheSet {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* evictions = nullptr;
    Counter* insertions = nullptr;

    void Add(const CacheCounters& d) const {
      if (hits && d.hits) hits->Increment(d.hits);
      if (misses && d.misses) misses->Increment(d.misses);
      if (evictions && d.evictions) evictions->Increment(d.evictions);
      if (insertions && d.insertions) insertions->Increment(d.insertions);
    }
  };
  CacheSet path_lookups, path_records, label_matches, alignment_memo,
      thesaurus, search_tables;

  static EngineInstruments Resolve(MetricsRegistry* reg) {
    EngineInstruments out;
    out.queries = reg->GetCounter("sama_queries_total", "Queries executed.");
    out.answers =
        reg->GetCounter("sama_query_answers_total", "Answers returned.");
    auto bounds = Histogram::LatencyBucketsMillis();
    out.latency = reg->GetHistogram("sama_query_latency_millis",
                                    "End-to-end query latency.", bounds);
    const char* phase_help = "Per-phase query latency.";
    out.phase_preprocess =
        reg->GetHistogram("sama_query_phase_millis", phase_help, bounds,
                          {{"phase", "preprocess"}});
    out.phase_clustering =
        reg->GetHistogram("sama_query_phase_millis", phase_help, bounds,
                          {{"phase", "clustering"}});
    out.phase_search = reg->GetHistogram("sama_query_phase_millis", phase_help,
                                         bounds, {{"phase", "search"}});
    out.expansions = reg->GetCounter("sama_search_expansions_total",
                                     "Forest-search node expansions.");
    out.bound_pruned =
        reg->GetCounter("sama_search_bound_pruned_total",
                        "Subtrees pruned by the score bound.");
    out.roots_pruned = reg->GetCounter("sama_search_roots_pruned_total",
                                       "Root candidates pruned outright.");
    out.truncated =
        reg->GetCounter("sama_search_truncated_total",
                        "Queries cut short by the anytime budget.");
    out.io_retries = reg->GetCounter("sama_io_retries_total",
                                     "Transient read retries during queries.");
    out.corrupt_skipped =
        reg->GetCounter("sama_corrupt_records_skipped_total",
                        "Candidates dropped for corrupt/unreadable pages.");
    out.slow_queries =
        reg->GetCounter("sama_slow_queries_total",
                        "Queries recorded in the slow-query log.");
    out.slow_sink_failures =
        reg->GetCounter("sama_slow_query_sink_failures_total",
                        "Slow-query JSONL sink write failures.");
    out.epoch_advances =
        reg->GetCounter("sama_epoch_advances_total",
                        "Global epoch advances observed during queries.");
    out.epoch_retired = reg->GetCounter(
        "sama_epoch_retired_total",
        "Objects handed to epoch retire lists during queries.");
    out.epoch_reclaimed = reg->GetCounter(
        "sama_epoch_reclaimed_total",
        "Epoch-retired objects actually freed during queries.");
    out.cache_lock_skips = reg->GetGauge(
        "sama_cache_lru_lock_skips",
        "Cache hits that skipped the LRU touch under write contention "
        "(lifetime total across query-side caches).");
    out.search_table_bytes = reg->GetGauge(
        "sama_search_tables_bytes",
        "Bytes of forest-search tables the engine's memo keeps alive.");
    auto cache_set = [reg](const char* name) {
      CacheSet s;
      s.hits = reg->GetCounter("sama_cache_hits_total", "Cache hits.",
                               {{"cache", name}});
      s.misses = reg->GetCounter("sama_cache_misses_total", "Cache misses.",
                                 {{"cache", name}});
      s.evictions = reg->GetCounter("sama_cache_evictions_total",
                                    "Cache evictions.", {{"cache", name}});
      s.insertions = reg->GetCounter("sama_cache_insertions_total",
                                     "Cache insertions.", {{"cache", name}});
      return s;
    };
    out.path_lookups = cache_set("path_lookups");
    out.path_records = cache_set("path_records");
    out.label_matches = cache_set("label_matches");
    out.alignment_memo = cache_set("alignment_memo");
    out.thesaurus = cache_set("thesaurus");
    out.search_tables = cache_set("search_tables");
    return out;
  }
};

// The live-update state EnableUpdates installs. One instance is shared
// by every copy of the engine, so `mu` is THE ordering point between
// updates (exclusive) and queries (shared).
struct SamaEngine::UpdateState {
  std::shared_mutex mu;
  Wal wal;
  DataGraph* graph = nullptr;
  PathIndex* index = nullptr;
  UpdateOptions options;
  // Updates applied since the last successful checkpoint (replayed
  // recovery records count — they too are only in the WAL).
  uint64_t since_checkpoint = 0;
  // Set when durability became indeterminate: an fsync failed (the
  // kernel may have dropped the dirty pages, and no later fsync can
  // resurrect them) or an apply died midway. Further updates are
  // refused — applying more would let the in-memory state diverge from
  // what replay reconstructs — but the store stays fully queryable;
  // reopening the index heals from disk.
  bool sealed = false;
  std::string seal_reason;
  std::shared_ptr<const QueryTrace> recovery_trace;

  Counter* inserts = nullptr;
  Counter* deletes = nullptr;
  Counter* io_errors = nullptr;
  Counter* checkpoints = nullptr;
  Gauge* recovery_millis = nullptr;

  void Seal(const Status& cause) {
    sealed = true;
    seal_reason = cause.ToString();
  }

  // Applies one decoded mutation to the graph + index. Shared by the
  // live path and WAL-replay redo; both are idempotent (duplicate
  // insert and absent delete are no-ops), which is what makes
  // crash-at-every-point replay safe.
  Status Apply(TripleUpdate::Op op, const Triple& triple,
               const Thesaurus* thesaurus) {
    if (op == TripleUpdate::Op::kInsert) {
      return index->AddTriple(graph, triple, thesaurus);
    }
    return index->RemoveTriple(graph, triple, thesaurus);
  }

  // Sync that upholds the seal contract: a failed fsync seals the
  // state.
  Status SyncOrSeal(uint64_t lsn) {
    Status s = wal.Sync(lsn);
    if (!s.ok()) {
      io_errors->Increment();
      Seal(s);
    }
    return s;
  }

  // Checkpoint protocol, caller holds the exclusive lock:
  //   1. fsync the WAL through the last applied LSN (the metadata is
  //      about to claim coverage of those records);
  //   2. record that LSN in the index and Checkpoint() it — the staged
  //      index.meta rename is the atomic commit point;
  //   3. delete WAL segments the checkpoint made obsolete.
  // A crash at any step leaves either the old checkpoint + a complete
  // WAL, or the new checkpoint + not-yet-deleted segments replay skips.
  Status CheckpointLocked() {
    SAMA_RETURN_IF_ERROR(FailPoints::Trigger("engine.checkpoint.begin"));
    uint64_t last = wal.next_lsn() - 1;
    SAMA_RETURN_IF_ERROR(SyncOrSeal(last));
    index->set_applied_lsn(last);
    Status s = index->Checkpoint();
    if (!s.ok()) {
      // The meta rename is atomic: on failure the old checkpoint still
      // governs and the WAL still holds every record — degraded (ENOSPC
      // and friends) but consistent, so no seal. Retried on the next
      // checkpoint trigger.
      io_errors->Increment();
      return s;
    }
    SAMA_RETURN_IF_ERROR(FailPoints::Trigger("engine.checkpoint.committed"));
    SAMA_RETURN_IF_ERROR(wal.TruncateThrough(last));
    since_checkpoint = 0;
    checkpoints->Increment();
    return Status::Ok();
  }
};

Status SamaEngine::EnableUpdates(DataGraph* graph, PathIndex* index,
                                 UpdateOptions options) {
  // A sharded engine's slices are read-only shards; only a single
  // PathIndex (one slice, ids already global) takes updates.
  if (graph != graph_ || slices_->size() != 1 ||
      (*slices_)[0].source.global_ids != nullptr ||
      index != (*slices_)[0].source.index) {
    return Status::InvalidArgument(
        "EnableUpdates must receive the same graph and index the engine "
        "was constructed over");
  }
  if (updates_ != nullptr) {
    return Status::InvalidArgument("updates are already enabled");
  }
  if (index->options().dir.empty()) {
    return Status::InvalidArgument(
        "updates need a disk-backed index: the WAL lives in its directory");
  }
  auto state = std::make_shared<UpdateState>();
  state->graph = graph;
  state->index = index;
  state->options = options;

  MetricsRegistry* reg = options.registry != nullptr ? options.registry
                         : options_.obs.registry != nullptr
                             ? options_.obs.registry
                             : MetricsRegistry::Global();
  const char* updates_help = "Triple updates applied through the WAL.";
  state->inserts =
      reg->GetCounter("sama_updates_total", updates_help, {{"op", "insert"}});
  state->deletes =
      reg->GetCounter("sama_updates_total", updates_help, {{"op", "delete"}});
  state->io_errors = reg->GetCounter(
      "sama_io_errors_total",
      "I/O failures on the durability path (ENOSPC, short writes, "
      "failed fsyncs); the store stays queryable.");
  state->checkpoints =
      reg->GetCounter("sama_update_checkpoints_total",
                      "Index checkpoints taken by the update path.");
  state->recovery_millis =
      reg->GetGauge("sama_wal_recovery_millis",
                    "Wall time of the last WAL recovery replay.");

  Wal::Options wal_options;
  wal_options.dir = index->options().dir + "/wal";
  wal_options.segment_bytes = options.segment_bytes;
  // An empty WAL dir must hand out LSNs from past the checkpoint:
  // restarting at 1 would journal updates replay then never sees.
  wal_options.start_lsn = index->applied_lsn() + 1;
  wal_options.env = options.env;
  wal_options.registry = reg;

  auto trace = std::make_shared<QueryTrace>();
  ObsSpan recovery_span(trace.get(), "wal.recovery");
  WallTimer timer;
  SAMA_RETURN_IF_ERROR(state->wal.Open(wal_options));
  {
    ObsSpan replay_span(trace.get(), "wal.replay");
    Status replayed = state->wal.Replay(
        index->applied_lsn(), [&](const Wal::Record& record) -> Status {
          Triple triple;
          size_t pos = 0;
          if (!GetTriple(record.payload, &pos, &triple) ||
              pos != record.payload.size()) {
            return Status::Corruption("WAL record " +
                                      std::to_string(record.lsn) +
                                      " does not decode to a triple");
          }
          switch (record.type) {
            case Wal::kInsertTriple:
              return state->Apply(TripleUpdate::Op::kInsert, triple,
                                  thesaurus_);
            case Wal::kDeleteTriple:
              return state->Apply(TripleUpdate::Op::kDelete, triple,
                                  thesaurus_);
            default:
              return Status::Corruption(
                  "WAL record " + std::to_string(record.lsn) +
                  " has unknown type " + std::to_string(record.type));
          }
        });
    if (!replayed.ok()) return replayed;
  }
  recovery_span = ObsSpan();
  state->recovery_millis->Set(timer.ElapsedMillis());
  // Replayed records exist only in the WAL until the next checkpoint.
  state->since_checkpoint = state->wal.replayed_records();
  state->recovery_trace = trace;
  updates_ = std::move(state);
  return Status::Ok();
}

Result<uint64_t> SamaEngine::ApplyUpdate(const TripleUpdate& update) const {
  return ApplyUpdate(update, nullptr, 0);
}

Result<uint64_t> SamaEngine::ApplyUpdate(const TripleUpdate& update,
                                         QueryTrace* trace,
                                         uint64_t parent_span) const {
  if (updates_ == nullptr) {
    return Status::InvalidArgument(
        "live updates are not enabled on this engine (EnableUpdates)");
  }
  UpdateState* state = updates_.get();
  std::unique_lock<std::shared_mutex> lock(state->mu);
  if (state->sealed) {
    return Status::IoError(
        "update path sealed after a durability failure (reopen the index "
        "to recover): " +
        state->seal_reason);
  }
  std::vector<uint8_t> payload;
  PutTriple(&payload, update.triple);
  uint8_t type = update.op == TripleUpdate::Op::kInsert ? Wal::kInsertTriple
                                                        : Wal::kDeleteTriple;
  Result<uint64_t> lsn_or = [&]() {
    ObsSpan append_span(trace, "wal.append", parent_span);
    auto r = state->wal.Append(type, payload);
    if (r.ok()) append_span.SetAttr("lsn", std::to_string(*r));
    return r;
  }();
  if (!lsn_or.ok()) {
    // The tail did not advance: nothing was journalled or applied, so
    // the caller can simply retry. Degraded, not fatal.
    state->io_errors->Increment();
    return lsn_or.status();
  }
  if (state->options.durable && update.durable) {
    ObsSpan fsync_span(trace, "wal.fsync", parent_span);
    fsync_span.SetAttr("lsn", std::to_string(*lsn_or));
    SAMA_RETURN_IF_ERROR(state->SyncOrSeal(*lsn_or));
  }
  {
    ObsSpan apply_span(trace, "wal.apply", parent_span);
    apply_span.SetAttr("lsn", std::to_string(*lsn_or));
    apply_span.SetAttr(
        "op", update.op == TripleUpdate::Op::kInsert ? "insert" : "delete");
    Status applied = state->Apply(update.op, update.triple, thesaurus_);
    if (!applied.ok()) {
      // The record is journalled but the in-memory apply died midway;
      // memory can no longer be trusted to match what replay rebuilds.
      state->io_errors->Increment();
      state->Seal(applied);
      return applied;
    }
  }
  (update.op == TripleUpdate::Op::kInsert ? state->inserts : state->deletes)
      ->Increment();
  ++state->since_checkpoint;
  if (state->options.checkpoint_every != 0 &&
      state->since_checkpoint >= state->options.checkpoint_every) {
    // The update itself is applied (and durable when asked); an error
    // here reports checkpoint trouble, and replay + idempotent redo
    // cover a retry.
    ObsSpan checkpoint_span(trace, "wal.checkpoint", parent_span);
    SAMA_RETURN_IF_ERROR(state->CheckpointLocked());
  }
  return *lsn_or;
}

Result<uint64_t> SamaEngine::InsertTriple(const Triple& triple) const {
  return ApplyUpdate({TripleUpdate::Op::kInsert, triple, true});
}

Result<uint64_t> SamaEngine::DeleteTriple(const Triple& triple) const {
  return ApplyUpdate({TripleUpdate::Op::kDelete, triple, true});
}

Status SamaEngine::FlushUpdates() const {
  if (updates_ == nullptr) return Status::Ok();
  UpdateState* state = updates_.get();
  std::unique_lock<std::shared_mutex> lock(state->mu);
  if (state->sealed) {
    return Status::IoError("update path sealed: " + state->seal_reason);
  }
  if (state->wal.next_lsn() <= 1) return Status::Ok();
  return state->SyncOrSeal(state->wal.next_lsn() - 1);
}

Status SamaEngine::CheckpointUpdates() const {
  if (updates_ == nullptr) {
    return Status::InvalidArgument("live updates are not enabled");
  }
  UpdateState* state = updates_.get();
  std::unique_lock<std::shared_mutex> lock(state->mu);
  if (state->sealed) {
    return Status::IoError("update path sealed: " + state->seal_reason);
  }
  return state->CheckpointLocked();
}

bool SamaEngine::updates_durable() const {
  return updates_ != nullptr && updates_->options.durable;
}

uint64_t SamaEngine::last_update_lsn() const {
  if (updates_ == nullptr) return 0;
  std::shared_lock<std::shared_mutex> lock(updates_->mu);
  return updates_->wal.next_lsn() - 1;
}

std::shared_ptr<const QueryTrace> SamaEngine::recovery_trace() const {
  return updates_ == nullptr ? nullptr : updates_->recovery_trace;
}

std::vector<std::string> SamaEngine::UpdateCrashPoints() {
  std::vector<std::string> points = Wal::CrashPoints();
  points.push_back("engine.checkpoint.begin");
  points.push_back("engine.checkpoint.committed");
  return points;
}

SamaEngine::SamaEngine(const DataGraph* graph, const PathIndex* index,
                       const Thesaurus* thesaurus, EngineOptions options)
    : SamaEngine(graph, {IndexSlice{index}}, 0, thesaurus,
                 std::move(options)) {}

SamaEngine::SamaEngine(const DataGraph* graph, std::vector<IndexSlice> slices,
                       uint64_t shards_degraded, const Thesaurus* thesaurus,
                       EngineOptions options)
    : graph_(graph),
      thesaurus_(thesaurus),
      options_(std::move(options)),
      shards_degraded_(shards_degraded) {
  size_t threads = options_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                             : options_.num_threads;
  // The calling thread participates in every parallel section, so a
  // request for N threads needs N-1 pool workers. The pool is shared
  // across queries and lives for the engine's lifetime.
  if (threads > 1) {
    pool_ = std::make_shared<ThreadPool>(threads - 1, kPoolSpin);
  }

  const bool caching = options_.cache.enabled;
  if (caching) {
    label_cache_ = std::make_shared<ShardedLruCache<uint64_t, LabelMatch>>(
        kLabelMatchEntries);
    label_cache_identity_ = std::make_shared<std::atomic<uint64_t>>(
        thesaurus_ == nullptr ? 0 : thesaurus_->identity());
    table_memo_ = std::make_shared<SearchTableMemo>();
  }
  auto owned = std::make_shared<std::vector<Slice>>();
  for (const IndexSlice& source : slices) {
    source.index->ConfigureQueryCache(caching);
    Slice slice;
    slice.source = source;
    if (caching) {
      slice.alignment_memo =
          std::make_unique<AlignmentMemo>(kAlignmentMemoEntries);
    }
    owned->push_back(std::move(slice));
  }
  slices_ = std::move(owned);

  const ObsOptions& obs = options_.obs;
  if (obs.metrics) {
    MetricsRegistry* reg =
        obs.registry != nullptr ? obs.registry : MetricsRegistry::Global();
    instruments_ =
        std::make_shared<EngineInstruments>(EngineInstruments::Resolve(reg));
  }
  if (obs.slow_query_millis > 0) {
    SlowQueryLog::Options log_options;
    log_options.threshold_millis = obs.slow_query_millis;
    log_options.capacity = kSlowQueryCapacity;
    log_options.jsonl_path = obs.slow_query_path;
    log_options.env = obs.env;
    slow_log_ = std::make_shared<SlowQueryLog>(log_options);
  }
  if (obs.profile) {
    profile_log_ = std::make_shared<ProfileLog>(kProfileCapacity);
  }
}

void SamaEngine::DropQueryCaches() const {
  if (label_cache_) label_cache_->Clear();
  if (table_memo_) table_memo_->cache.Clear();
  for (const Slice& slice : *slices_) {
    if (slice.alignment_memo) slice.alignment_memo->Clear();
    slice.source.index->DropQueryCaches();
  }
}

Result<std::vector<Answer>> SamaEngine::ExecuteSparql(
    const SparqlQuery& query, size_t k, QueryStats* stats,
    const QueryContext& ctx) const {
  if (k == 0) k = query.limit;
  QueryGraph qg = BuildQueryGraph(query.patterns);
  ForestSearchOptions search = options_.search;
  if (!query.select_all) search.dedup_vars = query.select_vars;
  if (!query.filters.empty()) {
    search.binding_filter = [filters = query.filters](
                                const Substitution& binding) {
      return PassesFilters(filters, binding);
    };
  }
  return Run(qg, std::move(search), k, stats, ctx);
}

Result<std::vector<Answer>> SamaEngine::Execute(const QueryGraph& query,
                                                size_t k, QueryStats* stats,
                                                const QueryContext& ctx) const {
  return Run(query, options_.search, k, stats, ctx);
}

Result<std::shared_ptr<const SearchTables>> SamaEngine::SearchTablesFor(
    const QueryGraph& query, const IntersectionQueryGraph& ig,
    const std::vector<Cluster>& clusters, bool require_connected,
    std::atomic<uint64_t>* busy_nanos, CacheCounters* counters,
    bool* reused) const {
  *reused = false;
  auto build = [&]() {
    return BuildSearchTables(query, ig, clusters, options_.params,
                             require_connected, pool_.get(), busy_nanos);
  };
  if (table_memo_ == nullptr) return build();
  const std::string key = SearchTableKey(query, require_connected);
  std::shared_ptr<const SearchTables> held;
  if (table_memo_->cache.Get(key, &held)) {
    if (SearchTablesMatch(*held, clusters)) {
      ++counters->hits;
      *reused = true;
      return held;
    }
    // Built from other clusters: drop it, and let the next query of the
    // shape store its build.
    table_memo_->Erase(key);
    ++counters->misses;
    return build();
  }
  ++counters->misses;
  auto built = build();
  if (built.ok() && SearchTablesBytes(**built) <= kSearchTableMaxBytes) {
    table_memo_->Store(key, *built, counters);
  }
  return built;
}

Result<std::vector<Answer>> SamaEngine::Run(const QueryGraph& query,
                                            ForestSearchOptions search,
                                            size_t k, QueryStats* stats,
                                            const QueryContext& ctx) const {
  // Queries share the update lock; ApplyUpdate takes it exclusively, so
  // every query sees either all of an update or none of it. Read-only
  // engines (no EnableUpdates) skip the lock entirely.
  std::shared_lock<std::shared_mutex> update_lock;
  if (updates_ != nullptr) {
    update_lock = std::shared_lock<std::shared_mutex>(updates_->mu);
  }
  WallTimer total;
  QueryStats local;
  local.threads_used = threads_used();
  local.shards_degraded = shards_degraded_;
  ThreadPool* pool = pool_.get();
  // Epoch-reclamation activity over the query window (global manager,
  // so concurrent queries contribute too — see QueryStats).
  const EpochManager::Stats epoch_before = EpochManager::Global()->stats();

  // Cross-query caches: verify the label cache still matches the
  // thesaurus content (mutations between queries clear it; the other
  // caches embed the identity in their keys).
  if (label_cache_ != nullptr) {
    uint64_t identity = thesaurus_ == nullptr ? 0 : thesaurus_->identity();
    if (label_cache_identity_->exchange(identity) != identity) {
      label_cache_->Clear();
    }
  }
  QueryCaches caches;
  caches.label_matches = label_cache_.get();

  // Per-query attribution: every cache layer tallies THIS query's
  // traffic into these scoped sinks. (Diffing the shared lifetime
  // counters instead would fold concurrent queries' traffic into this
  // query's stats — the cross-contamination bug this replaced.)
  QueryCacheDeltas deltas;
  QueryObs qobs;
  qobs.deltas = &deltas;

  // Profiling needs the span trace as raw material, so it forces span
  // recording even when obs.trace is off (QueryStats::trace still
  // stays null in that case — the spans live inside the profile).
  // A query adopting the caller's trace (ctx.trace) appends into it
  // instead and skips profile assembly, whose builder assumes the
  // trace holds exactly one query's spans.
  const bool adopting = ctx.trace != nullptr;
  const bool profiling =
      options_.obs.profile && profile_log_ != nullptr && !adopting;
  std::shared_ptr<QueryTrace> trace = ctx.trace;
  if (!adopting && (options_.obs.trace || profiling)) {
    trace = std::make_shared<QueryTrace>();
    if (ctx.trace_context.valid()) trace->SetContext(ctx.trace_context);
  }
  qobs.trace = trace.get();
  // Adoption parents the query span explicitly: the caller's request
  // span was opened with raw BeginSpan on another thread, so the TLS
  // current-span slot cannot supply it.
  ObsSpan query_span = adopting
                           ? ObsSpan(trace.get(), "query", ctx.parent_span)
                           : ObsSpan(trace.get(), "query");

  // Preprocessing: PQ is computed by the QueryGraph itself; build the
  // intersection query graph here.
  WallTimer phase;
  ObsSpan preprocess_span(trace.get(), "preprocess");
  IntersectionQueryGraph ig(query);
  preprocess_span = ObsSpan();
  local.preprocess_millis = phase.ElapsedMillis();
  local.num_query_paths = query.paths().size();

  // Profiler phase boundaries: buffer-pool counter snapshots (the
  // delta over a phase window is pool-wide, so concurrent queries can
  // contribute to it — documented caveat) plus the scoped cache sinks,
  // which are per-query exact. The sinks accumulate across phases, so
  // the search share is total minus the clustering share.
  auto cache_totals = [&deltas]() {
    CacheCounters total;
    total += deltas.lookups.Snapshot();
    total += deltas.records.Snapshot();
    total += deltas.label_matches.Snapshot();
    total += deltas.alignments.Snapshot();
    total += deltas.thesaurus.Snapshot();
    return total;
  };
  const std::vector<Slice>& slices = *slices_;
  auto pool_stats = [&slices]() {
    BufferPool::Stats sum;
    for (const Slice& slice : slices) {
      BufferPool::Stats one = slice.source.index->cache_stats();
      sum.fetches += one.fetches;
      sum.hits += one.hits;
      sum.misses += one.misses;
      sum.evictions += one.evictions;
      sum.bytes_read += one.bytes_read;
    }
    return sum;
  };
  BufferPool::Stats pages_before{};
  if (profiling) pages_before = pool_stats();

  // Clustering, slice by slice (parallel over candidate chunks when a
  // pool exists; results are identical either way).
  phase.Restart();
  std::atomic<uint64_t> clustering_busy{0};
  std::atomic<uint64_t> corrupt_skipped{0};
  std::atomic<uint64_t> io_retried{0};
  ObsSpan clustering_span(trace.get(), "clustering");
  // Chunk spans recorded on pool workers parent here explicitly.
  qobs.parent_span = clustering_span.id();
  if (slices.empty()) return Status::Internal("no live index slices");
  std::vector<std::vector<Cluster>> sliced;
  sliced.reserve(slices.size());
  for (const Slice& slice : slices) {
    ObsSpan shard_span;
    if (slices.size() > 1) {
      const std::string shard = std::to_string(slice.source.shard);
      shard_span = ObsSpan(trace.get(), "shard-" + shard + ".cluster");
      shard_span.SetAttr("shard", shard);
      qobs.parent_span = shard_span.id();
    }
    caches.alignment_memo = slice.alignment_memo.get();
    auto clusters_or =
        BuildClusters(query, *slice.source.index, thesaurus_, options_.params,
                      options_.clustering, pool, &clustering_busy,
                      &corrupt_skipped, &io_retried, &caches, &qobs);
    if (!clusters_or.ok()) return clusters_or.status();
    if (slice.source.global_ids != nullptr) {
      for (Cluster& c : *clusters_or) {
        for (ScoredPath& sp : c.paths) {
          sp.id = (*slice.source.global_ids)[sp.id];
        }
      }
    }
    sliced.push_back(std::move(*clusters_or));
  }
  std::vector<Cluster> clusters =
      sliced.size() == 1
          ? std::move(sliced[0])
          : MergeSliceClusters(std::move(sliced),
                               options_.clustering.max_candidates_per_cluster);
  clustering_span = ObsSpan();
  local.clustering_millis = phase.ElapsedMillis();
  local.clustering_busy_millis =
      static_cast<double>(clustering_busy.load()) / 1e6;
  local.corrupt_records_skipped = corrupt_skipped.load();
  local.io_retries = io_retried.load();
  for (const Cluster& c : clusters) local.num_candidate_paths += c.size();

  BufferPool::Stats pages_after_clustering = pages_before;
  CacheCounters cache_after_clustering;
  if (profiling) {
    pages_after_clustering = pool_stats();
    cache_after_clustering = cache_totals();
  }

  // Search (parallel over candidate subtrees in deterministic waves).
  phase.Restart();
  if (k != 0) search.k = k;
  if (ctx.deadline != std::chrono::steady_clock::time_point{}) {
    search.deadline = ctx.deadline;
  }
  std::atomic<uint64_t> search_busy{0};
  ForestSearchStats fstats;
  ObsSpan search_span(trace.get(), "search");
  ObsSpan tables_span(trace.get(), "search.tables");
  bool reused = false;
  auto tables_or =
      SearchTablesFor(query, ig, clusters, search.require_connected,
                      &search_busy, &local.search_tables, &reused);
  if (!tables_or.ok()) return tables_or.status();
  std::shared_ptr<const SearchTables> tables = std::move(*tables_or);
  tables_span.SetAttr("reused", reused ? "true" : "false");
  tables_span = ObsSpan();
  ObsSpan waves_span(trace.get(), "search.waves");
  auto answers_or = SearchForest(*tables, clusters, options_.params, search,
                                 pool, &search_busy, &fstats);
  waves_span.SetAttr("intersections", std::to_string(fstats.intersections));
  waves_span.SetAttr("intersections_reused",
                     std::to_string(fstats.intersections_reused));
  waves_span = ObsSpan();
  tables.reset();  // A build the memo did not keep is freed in the search.
  search_span = ObsSpan();
  if (!answers_or.ok()) return answers_or.status();
  local.search_millis = phase.ElapsedMillis();
  local.search_busy_millis = static_cast<double>(search_busy.load()) / 1e6;
  local.search_expansions = fstats.expansions;
  local.search_bound_pruned = fstats.bound_pruned;
  local.search_roots_pruned = fstats.roots_pruned;
  local.search_intersections = fstats.intersections;
  local.search_intersections_reused = fstats.intersections_reused;
  local.search_truncated = fstats.truncated;

  // Per-query cache stats come straight from this query's scoped sinks.
  local.path_lookup_cache = deltas.lookups.Snapshot();
  local.path_record_cache = deltas.records.Snapshot();
  local.label_match_cache = deltas.label_matches.Snapshot();
  local.alignment_memo = deltas.alignments.Snapshot();
  local.thesaurus_cache = deltas.thesaurus.Snapshot();

  // The clusters end inside the query's span and latency: the answers
  // keep their own references to the records and alignments they use.
  clusters.clear();
  query_span = ObsSpan();
  local.total_millis = total.ElapsedMillis();
  local.num_answers = answers_or->size();
  {
    const EpochManager::Stats epoch_after = EpochManager::Global()->stats();
    local.epoch_advances = epoch_after.advances - epoch_before.advances;
    local.epoch_retired = epoch_after.retired - epoch_before.retired;
    local.epoch_reclaimed = epoch_after.reclaimed - epoch_before.reclaimed;
  }
  if (options_.obs.trace || adopting) local.trace = trace;

  if (profiling) {
    BufferPool::Stats pages_after_search = pool_stats();
    CacheCounters cache_after_search = cache_totals();

    ProfileSummary summary;
    summary.total_millis = local.total_millis;
    summary.num_query_paths = local.num_query_paths;
    summary.num_candidate_paths = local.num_candidate_paths;
    summary.num_answers = local.num_answers;
    summary.threads_used = local.threads_used;
    summary.search_expansions = local.search_expansions;
    summary.search_truncated = local.search_truncated;

    std::vector<QueryProfile::PhaseCounters> phases(3);
    phases[0].phase = "clustering";
    {
      ProfileCounters& c = phases[0].counters;
      c.cache_hits = cache_after_clustering.hits;
      c.cache_misses = cache_after_clustering.misses;
      BufferPool::Stats d =
          BufferPool::Stats::Delta(pages_before, pages_after_clustering);
      c.pages_fetched = d.fetches;
      c.pages_read = d.misses;
      c.pages_evicted = d.evictions;
      c.bytes_read = d.bytes_read;
      // Degraded-read accounting happens inside BuildClusters only.
      c.io_retries = local.io_retries;
      c.corrupt_skipped = local.corrupt_records_skipped;
    }
    phases[1].phase = "search";
    {
      ProfileCounters& c = phases[1].counters;
      c.cache_hits = cache_after_search.hits - cache_after_clustering.hits;
      c.cache_misses =
          cache_after_search.misses - cache_after_clustering.misses;
      BufferPool::Stats d = BufferPool::Stats::Delta(pages_after_clustering,
                                                     pages_after_search);
      c.pages_fetched = d.fetches;
      c.pages_read = d.misses;
      c.pages_evicted = d.evictions;
      c.bytes_read = d.bytes_read;
      c.search_expansions = local.search_expansions;
    }
    phases[2].phase = "search.tables";
    phases[2].counters.cache_hits = local.search_tables.hits;
    phases[2].counters.cache_misses = local.search_tables.misses;
    auto profile = std::make_shared<QueryProfile>(
        QueryProfile::Build(trace->Snapshot(), std::move(summary), phases));
    profile_log_->Add(profile);
    local.profile = profile;
  }

  if (instruments_ != nullptr) {
    const EngineInstruments& ins = *instruments_;
    ins.queries->Increment();
    ins.answers->Increment(local.num_answers);
    ins.latency->Observe(local.total_millis);
    ins.phase_preprocess->Observe(local.preprocess_millis);
    ins.phase_clustering->Observe(local.clustering_millis);
    ins.phase_search->Observe(local.search_millis);
    if (local.search_expansions) ins.expansions->Increment(local.search_expansions);
    if (local.search_bound_pruned) {
      ins.bound_pruned->Increment(local.search_bound_pruned);
    }
    if (local.search_roots_pruned) {
      ins.roots_pruned->Increment(local.search_roots_pruned);
    }
    if (local.search_truncated) ins.truncated->Increment();
    if (local.io_retries) ins.io_retries->Increment(local.io_retries);
    if (local.corrupt_records_skipped) {
      ins.corrupt_skipped->Increment(local.corrupt_records_skipped);
    }
    ins.path_lookups.Add(local.path_lookup_cache);
    ins.path_records.Add(local.path_record_cache);
    ins.label_matches.Add(local.label_match_cache);
    ins.alignment_memo.Add(local.alignment_memo);
    ins.thesaurus.Add(local.thesaurus_cache);
    ins.search_tables.Add(local.search_tables);
    if (table_memo_ != nullptr) {
      ins.search_table_bytes->Set(static_cast<double>(
          table_memo_->resident->load(std::memory_order_relaxed)));
    }
    if (local.epoch_advances) {
      ins.epoch_advances->Increment(local.epoch_advances);
    }
    if (local.epoch_retired) ins.epoch_retired->Increment(local.epoch_retired);
    if (local.epoch_reclaimed) {
      ins.epoch_reclaimed->Increment(local.epoch_reclaimed);
    }
    uint64_t skips = 0;
    if (label_cache_ != nullptr) skips += label_cache_->lru_lock_skips();
    if (table_memo_ != nullptr) skips += table_memo_->cache.lru_lock_skips();
    for (const Slice& slice : slices) {
      if (slice.alignment_memo) skips += slice.alignment_memo->lock_skips();
      skips += slice.source.index->query_cache_lock_skips();
    }
    if (thesaurus_ != nullptr) {
      skips += thesaurus_->relatedness_cache_lock_skips();
    }
    ins.cache_lock_skips->Set(static_cast<double>(skips));
  }

  if (slow_log_ != nullptr && slow_log_->ShouldRecord(local.total_millis)) {
    SlowQueryRecord record;
    if (ctx.trace_context.valid()) {
      record.trace_id = ctx.trace_context.TraceIdHex();
    }
    record.request_id = ctx.request_id;
    record.total_millis = local.total_millis;
    record.preprocess_millis = local.preprocess_millis;
    record.clustering_millis = local.clustering_millis;
    record.search_millis = local.search_millis;
    record.num_query_paths = local.num_query_paths;
    record.num_candidate_paths = local.num_candidate_paths;
    record.num_answers = local.num_answers;
    record.search_expansions = local.search_expansions;
    record.search_truncated = local.search_truncated;
    record.corrupt_records_skipped = local.corrupt_records_skipped;
    record.io_retries = local.io_retries;
    record.threads = static_cast<int>(local.threads_used);
    uint64_t sink_failures_before = slow_log_->sink_failures();
    slow_log_->Record(record);
    if (instruments_ != nullptr) {
      instruments_->slow_queries->Increment();
      uint64_t failed = slow_log_->sink_failures() - sink_failures_before;
      if (failed) instruments_->slow_sink_failures->Increment(failed);
    }
  }

  if (stats != nullptr) *stats = local;
  return answers_or;
}

}  // namespace sama
