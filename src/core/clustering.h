#ifndef SAMA_CORE_CLUSTERING_H_
#define SAMA_CORE_CLUSTERING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/alignment.h"
#include "core/score_params.h"
#include "index/path_index.h"
#include "obs/trace.h"
#include "query/query_graph.h"
#include "text/thesaurus.h"

namespace sama {

// One candidate data path inside a cluster, with its alignment against
// the cluster's query path. Both point at immutable objects that the
// index's record cache and the engine's alignment memo may share with
// other clusters, answers and queries; copying a ScoredPath copies two
// pointers.
struct ScoredPath {
  PathId id = 0;
  std::shared_ptr<const Path> path;
  std::shared_ptr<const PathAlignment> alignment;

  double lambda() const { return alignment->lambda; }
};

// The cluster built for one query path (§5 Clustering, Figure 3):
// candidate data paths ordered by alignment quality, best (lowest λ)
// first.
struct Cluster {
  size_t query_path_index = 0;
  std::vector<ScoredPath> paths;

  bool empty() const { return paths.empty(); }
  size_t size() const { return paths.size(); }
};

// Optional engine-owned, cross-query caches threaded into candidate
// scoring (all borrowed; null members simply disable that layer).
// Every cache is a pure optimisation: BuildClusters output is
// bit-identical with and without them (tests/core/engine_cache_test.cc
// locks this in).
struct QueryCaches {
  // Cross-chunk memo of label-pair match results (each chunk still
  // keeps its local lock-free memo in front).
  ShardedLruCache<uint64_t, LabelMatch>* label_matches = nullptr;
  // Cross-query memo of full path alignments; see AlignmentMemo.
  AlignmentMemo* alignment_memo = nullptr;
};

// Per-query attribution sinks for every cache layer clustering touches.
// Scoring chunks tally into chunk-local CacheCounters and merge here at
// chunk end, so one query's QueryStats reflect exactly its own traffic
// even with other queries running concurrently on the same engine.
struct QueryCacheDeltas {
  AtomicCacheCounters lookups;        // Candidate-list memo.
  AtomicCacheCounters records;        // GetPath record cache.
  AtomicCacheCounters label_matches;  // Shared label-match cache.
  AtomicCacheCounters alignments;     // AlignmentMemo.
  AtomicCacheCounters thesaurus;      // AreRelated relatedness memo.
};

// Per-query observability context threaded into BuildClusters (all
// borrowed, all optional — a null/default QueryObs is free). Purely
// observational: clustering output is bit-identical with or without it.
struct QueryObs {
  QueryCacheDeltas* deltas = nullptr;
  // When set, each scoring chunk records a span parented (explicitly —
  // thread-locals do not follow work onto pool workers) under
  // `parent_span`, typically the engine's clustering-phase span.
  QueryTrace* trace = nullptr;
  uint64_t parent_span = 0;
};

struct ClusteringOptions {
  // Keep only the best n candidates per cluster after scoring
  // (0 = keep all). The λ order is unaffected.
  size_t max_candidates_per_cluster = 0;
  // With max_candidates_per_cluster set, abort alignments as soon as
  // their λ can no longer make the cluster's top n (the §7
  // score-computation improvement). Results are identical; only wasted
  // work is skipped. Ablated in bench_ablation.
  bool early_exit_alignment = true;
  // Read-failure policy. strict_io propagates the first corrupt or
  // unreadable candidate as an error; otherwise (the default) the
  // candidate is skipped and counted, and clustering proceeds over the
  // surviving paths. Skipping is per-candidate, so degraded results
  // stay deterministic across thread counts. Either way a transient
  // read (kIoError) is first retried twice, each retry backing off
  // briefly.
  bool strict_io = false;
};

// Builds one cluster per query path: candidates are retrieved from the
// index by sink label (or, for variable sinks, by the last constant of
// the path), aligned, scored with λ, and sorted best-first. The same
// data path may appear in several clusters with different scores
// (Figure 3's p1 in cl1 [0] and cl2 [1.5]).
//
// When `pool` has workers, candidate scoring fans out over fixed-size
// candidate chunks; chunk outputs are merged in candidate order and
// re-sorted by (λ, id), so the returned clusters are bit-identical to
// the sequential run — see DESIGN.md "Threading model". `busy_nanos`,
// when non-null, accumulates the time threads spent scoring (for
// QueryStats speedup reporting).
//
// `corrupt_skipped` and `io_retried`, when non-null, accumulate the
// candidates dropped for corruption/unreadability and the transient
// read retries performed (see ClusteringOptions::strict_io) — they
// feed QueryStats.
Result<std::vector<Cluster>> BuildClusters(
    const QueryGraph& query, const PathIndex& index,
    const Thesaurus* thesaurus, const ScoreParams& params,
    const ClusteringOptions& options, ThreadPool* pool = nullptr,
    std::atomic<uint64_t>* busy_nanos = nullptr,
    std::atomic<uint64_t>* corrupt_skipped = nullptr,
    std::atomic<uint64_t>* io_retried = nullptr,
    const QueryCaches* caches = nullptr, const QueryObs* obs = nullptr);

}  // namespace sama

#endif  // SAMA_CORE_CLUSTERING_H_
