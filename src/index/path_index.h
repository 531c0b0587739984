#ifndef SAMA_INDEX_PATH_INDEX_H_
#define SAMA_INDEX_PATH_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/sharded_cache.h"
#include "graph/data_graph.h"
#include "graph/path.h"
#include "graph/path_enumerator.h"
#include "storage/hypergraph_store.h"
#include "storage/path_store.h"
#include "text/inverted_index.h"
#include "text/thesaurus.h"

namespace sama {

// Options for the offline indexing phase.
struct PathIndexOptions {
  // Directory for the on-disk stores; empty keeps everything in memory
  // (tests, small examples). The experiments always use a directory —
  // the paper assumes the graph "cannot fit in memory" (§6.1).
  std::string dir;
  size_t buffer_pool_pages = 4096;  // 16 MiB page cache.
  // Worker threads for the concurrent BFS over sources (§6.1:
  // "independently concurrent traversals are started from each
  // source"). 1 = sequential.
  size_t num_threads = 1;
  PathEnumeratorOptions enumerate;
  // Populate the hypergraph store (one vertex per term, one hyperedge
  // per triple and per path — Figure 5). Needed for Table 1's |HV|/|HE|
  // columns; adds write volume.
  bool build_hypergraph = true;
  // I/O seam for fault-injection tests; nullptr = Env::Default().
  Env* env = nullptr;

  // ---- Sharded builds (src/shard, DESIGN.md §14). Build-time only;
  // both pointers must stay valid through Build and are not retained.
  //
  // When non-null, enumeration is restricted to the start nodes with
  // start_mask[node] != 0 (indexed by NodeId over the full graph; the
  // other stages — inverted label indexes, sources/sinks — still cover
  // the whole graph, so a shard answers lookups exactly like the full
  // index restricted to its paths). Per-start DFS emission order is
  // untouched, so the shard's dense local PathIds enumerate in the
  // same relative order the unfiltered build would give those paths —
  // the monotone local→global id property the sharded merge rests on.
  // Requires enumerate.max_paths == 0: a global truncation cap has no
  // well-defined restriction to a shard.
  const std::vector<uint8_t>* start_mask = nullptr;
  // When non-null, receives one (start node, paths emitted) entry per
  // enumerated start, in enumeration (StartNodes) order. The sharded
  // build layer derives the global id space from these counts.
  std::vector<std::pair<NodeId, uint64_t>>* per_start_counts = nullptr;
};

// Hit/miss totals of the two query-side cache layers. Also the
// per-query attribution sink the lookup entry points take: pass one
// scoped to a query to receive only that query's traffic (diffing the
// lifetime totals instead cross-attributes concurrent queries).
struct IndexCacheCounters {
  CacheCounters lookups;
  CacheCounters records;
};

// Table-1 quantities for one indexed dataset.
struct IndexStats {
  uint64_t num_triples = 0;
  uint64_t num_paths = 0;
  uint64_t hv = 0;  // |HV|: hypergraph vertices.
  uint64_t he = 0;  // |HE|: hypergraph hyperedges.
  double build_millis = 0;
  uint64_t disk_bytes = 0;  // Path store + hypergraph + label indexes.
};

// The offline index of §6.1. Holds:
//   (i)  hashed vertex/edge labels — inverted indexes from label text
//        to node ids and edge ids (element-to-element mapping);
//   (ii) the graph's sources and sinks;
//   (iii) every source→sink path, persisted in a PathStore, retrievable
//        by sink label (cluster lookup) and by contained label.
// The in-memory postings are the Lucene substitute; path bytes live on
// disk behind the buffer pool.
class PathIndex {
 public:
  PathIndex() = default;
  PathIndex(const PathIndex&) = delete;
  PathIndex& operator=(const PathIndex&) = delete;

  // Builds the index over `graph`. The graph must outlive the index.
  // When options.dir is set the index is persisted there (stores,
  // manifests and metadata), ready for Open().
  //
  // Crash safety: every artifact is first written into
  // options.dir/build.tmp, fsynced, then renamed into options.dir with
  // the index.meta rename as the atomic commit point. A build that
  // dies at any registered crash point (BuildCrashPoints()) leaves
  // either the previous committed index or a partial build that
  // Open() detects and discards — never a silently corrupt mix.
  Status Build(const DataGraph& graph, const PathIndexOptions& options);

  // The named failpoints the build/commit protocol passes through, in
  // order (see common/fault_injection.h FailPoints). Torture tests
  // crash at each one and verify recovery.
  static std::vector<std::string> BuildCrashPoints();

  // Opens an index previously Build()t into options.dir, without
  // recomputing any path. `graph` must be the BASE data graph the index
  // was built over (the same triples in the same order — FromTriples is
  // deterministic); a fingerprint check rejects mismatched graphs.
  // Open then restores the exact TermId space from the persisted
  // dictionary image (so terms interned later — query variables, update
  // entities — get their original ids back) and replays the journal of
  // AddTriple updates into `graph`, leaving graph + index exactly as
  // they were at the last Checkpoint(). options.dir must be set.
  //
  // Recovery: a leftover build.tmp from a crashed build is discarded.
  // When no committed index.meta exists the partial artifacts are
  // removed and kNotFound is returned — the clean empty state; callers
  // rebuild. A pre-checksum (v0) index fails with kInvalidArgument
  // naming the format version.
  Status Open(DataGraph* graph, const PathIndexOptions& options);

  // Incremental maintenance (the §7 "speed-up the update of the index"
  // future-work item): applies `triple` to `graph` (which must be the
  // graph this index was built over) and updates the index in place —
  // new source→sink paths through the new edge are enumerated and
  // stored, and paths invalidated by the edge (paths that used to end
  // at its subject when it was a sink, or start at its object when it
  // was a source) are tombstoned. A duplicate triple is a no-op.
  //
  // `thesaurus` is the thesaurus queries run with; it scopes the
  // query-cache invalidation to entries the change can actually affect
  // (per-touched-cluster) instead of flushing every cache. Passing
  // nullptr stays correct — entries cached under a thesaurus are then
  // invalidated conservatively.
  Status AddTriple(DataGraph* graph, const Triple& triple,
                   const Thesaurus* thesaurus = nullptr);

  // Inverse of AddTriple: removes `triple`'s edge from graph and index.
  // Paths traversing the edge are tombstoned; paths completed by the
  // removal (the subject becomes a sink, or the object becomes a
  // source) are enumerated and indexed. Removing an absent triple is an
  // idempotent no-op — replaying a WAL of deletes is safe.
  Status RemoveTriple(DataGraph* graph, const Triple& triple,
                      const Thesaurus* thesaurus = nullptr);

  // Number of live (non-tombstoned) paths.
  uint64_t live_path_count() const {
    return store_.path_count() - deleted_paths_.size();
  }

  // Paths whose sink carries exactly `label` (a TermId of the graph's
  // dictionary).
  const std::vector<PathId>& PathsWithSinkLabel(TermId label) const;

  // Paths whose sink label matches `term` exactly or through the
  // thesaurus (§5 Clustering, sink case). `stats` (optional) receives
  // this call's lookup cache traffic.
  std::vector<PathId> PathsWithSinkMatching(
      const Term& term, const Thesaurus* thesaurus,
      IndexCacheCounters* stats = nullptr) const;

  // Paths containing any element whose label matches `term` (§5
  // Clustering, variable-sink case).
  std::vector<PathId> PathsContaining(const Term& term,
                                      const Thesaurus* thesaurus,
                                      IndexCacheCounters* stats = nullptr) const;

  // Loads a stored path. The record is immutable and may be shared
  // with the record cache and with every other caller that read it; a
  // caller that needs its own copy dereferences. `record_stats`
  // (optional) receives this call's record-cache traffic.
  Status GetPath(PathId id, std::shared_ptr<const Path>* out,
                 CacheCounters* record_stats = nullptr) const;

  // Element-to-element mapping from the hashing step: graph nodes/edges
  // whose label matches `term` (used by the baseline matchers too).
  std::vector<NodeId> NodesMatching(const Term& term,
                                    const Thesaurus* thesaurus) const;
  std::vector<EdgeId> EdgesMatching(const Term& term,
                                    const Thesaurus* thesaurus) const;

  const std::vector<NodeId>& sources() const { return sources_; }
  const std::vector<NodeId>& sinks() const { return sinks_; }

  // Persists the current state (stores, manifests, metadata) so a
  // later Open() sees all updates applied since Build()/Open().
  // Requires the index to be disk-backed.
  Status Checkpoint();

  // WAL position this index has durably absorbed: every journalled
  // record with lsn <= applied_lsn() is reflected in the last
  // Checkpoint(). The engine sets it before checkpointing; recovery
  // replays only records past it.
  uint64_t applied_lsn() const { return applied_lsn_; }
  void set_applied_lsn(uint64_t lsn) { applied_lsn_ = lsn; }

  // Reads just the checkpoint LSN out of dir/index.meta without
  // loading the index (recovery + sama_cli verify). kNotFound when no
  // committed metadata exists.
  static Result<uint64_t> ReadCheckpointLsn(const std::string& dir,
                                            Env* env = nullptr);

  // Content identity of a graph, the value Build stamps into
  // index.meta and Open verifies. The sharded build layer (src/shard)
  // stamps the same fingerprint into its partition sidecars so a
  // shard set can detect being opened over the wrong graph.
  static uint64_t GraphFingerprint(const DataGraph& graph);

  // Empties every page cache AND the query-side caches (cold-cache
  // experiments).
  Status DropCaches();

  // Installs (or, with `enabled` false, removes) the query-side
  // caches: the candidate-list lookup memo over PathsWithSinkMatching /
  // PathsContaining and the memo over GetPath records (decoded,
  // checksum-verified paths), each sized by a constant. Off until
  // called — SamaEngine enables them from EngineOptions::cache. Both
  // are pure optimisations: lookups return identical results with
  // caching disabled, and a record that fails its checksum or read is
  // NEVER cached (strict-io semantics are preserved). Const because
  // engines hold the index by const reference; the caches are
  // internally thread-safe and invisible to results.
  void ConfigureQueryCache(bool enabled) const;
  // Drops every query-side cache entry (Build/Open/AddTriple call this
  // internally; exposed for tests and DropCaches).
  void DropQueryCaches() const;
  IndexCacheCounters query_cache_counters() const;
  // Cache hits across every query-side cache that skipped the LRU
  // touch under write contention (ShardedLruCache::lru_lock_skips) —
  // the read path's latch-contention signal.
  uint64_t query_cache_lock_skips() const;

  const IndexStats& stats() const { return stats_; }
  const PathIndexOptions& options() const { return options_; }
  const DataGraph& graph() const { return *graph_; }
  uint64_t path_count() const { return store_.path_count(); }
  BufferPool::Stats cache_stats() const { return store_.cache_stats(); }

 private:
  // One journalled mutation, replayed into the base graph by Open().
  struct JournalEntry {
    static constexpr uint8_t kInsert = 0;
    static constexpr uint8_t kDelete = 1;
    uint8_t op = kInsert;
    Triple triple;
  };

  // Labels whose candidate lists an update touched, precomputed for the
  // lookup-cache invalidation predicate.
  struct ChangedLabels {
    struct Entry {
      std::string display;
      std::string normalized;
      std::vector<std::string> tokens;  // Sorted.
    };
    std::unordered_set<TermId> tids;
    std::vector<Entry> entries;
    bool empty() const { return tids.empty(); }
    void Add(const TermDictionary& dict, TermId tid);
  };

  Status BuildHypergraph(const DataGraph& graph,
                         const std::vector<Path>& paths);
  // Serialized metadata: fingerprint, stats, sources/sinks, by_sink_
  // and the four inverted indexes.
  Status SaveMetadata(const std::string& dir) const;
  Status LoadMetadata(const std::string& dir, uint64_t fingerprint);

  const DataGraph* graph_ = nullptr;
  // Fingerprint of the base graph (before any AddTriple), fixed at
  // Build time so Checkpoint() after updates still identifies the base.
  uint64_t base_fingerprint_ = 0;
  // Highest WAL LSN reflected in the last checkpoint (0 = none).
  uint64_t applied_lsn_ = 0;
  // Mutations applied through AddTriple/RemoveTriple since Build,
  // replayed by Open.
  std::vector<JournalEntry> update_journal_;
  PathStore store_;
  HypergraphStore hypergraph_;
  InvertedLabelIndex node_index_;   // label -> NodeId.
  InvertedLabelIndex edge_index_;   // label -> EdgeId.
  InvertedLabelIndex sink_index_;   // sink label -> PathId.
  InvertedLabelIndex content_index_;  // any path label -> PathId.
  // Appends `p` to the store and every lookup structure; used by both
  // the bulk build and the live-update paths. The live-update paths
  // pass changed-label sets, which accumulate the touched labels for
  // the lookup-cache sweep.
  Status IndexOnePath(const Path& p, ChangedLabels* sink_labels = nullptr,
                      ChangedLabels* content_labels = nullptr);
  // Tombstones `id` everywhere it is visible, accumulating its labels
  // into the changed-label sets when given.
  void TombstonePath(PathId id, const Path& p,
                     ChangedLabels* sink_labels = nullptr,
                     ChangedLabels* content_labels = nullptr);
  // Erases exactly the lookup-cache entries whose answer the changed
  // labels can influence (same sound superset the inverted indexes use:
  // exact TermId, normalized equality, token containment, thesaurus
  // relation). Entries cached under a different thesaurus than
  // `thesaurus` are dropped conservatively.
  void InvalidateLookups(const ChangedLabels& sink_labels,
                         const ChangedLabels& content_labels,
                         const Thesaurus* thesaurus) const;
  // Removes tombstoned ids from a postings vector.
  std::vector<PathId> FilterDeleted(std::vector<uint64_t> ids) const;

  std::unordered_map<TermId, std::vector<PathId>> by_sink_;
  std::vector<NodeId> sources_;
  std::vector<NodeId> sinks_;
  std::unordered_set<PathId> deleted_paths_;
  PathIndexOptions options_;
  IndexStats stats_;

  // Query-side caches (ConfigureQueryCache); null when disabled.
  // Lookup keys embed term.ToString() (never DisplayLabel — an IRI
  // <.../Male> and the literal "Male" display alike but answer
  // differently) plus the thesaurus content identity. The record cache
  // holds verified paths only and is keyed by immutable PathIds, so it
  // survives AddTriple: tombstones are screened before it, and new ids
  // were never cached. GetPath hands out the cached record itself.
  mutable std::unique_ptr<ShardedLruCache<std::string, std::vector<PathId>>>
      lookup_cache_;
  mutable std::unique_ptr<ShardedLruCache<PathId, std::shared_ptr<const Path>>>
      record_cache_;
};

}  // namespace sama

#endif  // SAMA_INDEX_PATH_INDEX_H_
