#include "core/clustering.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <queue>
#include <thread>

namespace sama {
namespace {

// Transient-read retries before a candidate counts as unreadable.
constexpr size_t kMaxIoRetries = 2;

// Loads candidate `id` under the read-failure policy: transient
// kIoError reads are retried with a short backoff; a candidate that
// stays unreadable, or whose page fails its checksum, is either
// skipped (*skip = true, counted) or — under strict_io — propagated.
// kNotFound means the path was tombstoned between the index lookup and
// the read; that is not damage, so it is skipped silently in both
// policies.
Status LoadCandidate(const PathIndex& index, PathId id,
                     const ClusteringOptions& options,
                     std::shared_ptr<const Path>* out, bool* skip,
                     std::atomic<uint64_t>* corrupt_skipped,
                     std::atomic<uint64_t>* io_retried,
                     CacheCounters* record_stats) {
  *skip = false;
  Status s = index.GetPath(id, out, record_stats);
  for (size_t attempt = 0;
       s.code() == Status::Code::kIoError && attempt < kMaxIoRetries;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    if (io_retried != nullptr) {
      io_retried->fetch_add(1, std::memory_order_relaxed);
    }
    s = index.GetPath(id, out, record_stats);
  }
  if (s.ok()) return s;
  if (s.code() == Status::Code::kNotFound) {
    *skip = true;
    return Status::Ok();
  }
  bool damage = s.code() == Status::Code::kCorruption ||
                s.code() == Status::Code::kIoError;
  if (damage && !options.strict_io) {
    *skip = true;
    if (corrupt_skipped != nullptr) {
      corrupt_skipped->fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Ok();
  }
  return s;
}

// Candidate path ids for query path `q` (§5 Clustering): by sink label
// when the sink is a constant, by the last constant in the path when
// the sink is a variable, and — for the degenerate all-variable path —
// every stored path.
std::vector<PathId> Candidates(const QueryGraph& query, const Path& q,
                               const PathIndex& index,
                               const Thesaurus* thesaurus,
                               IndexCacheCounters* lookup_stats) {
  TermId sink = q.sink_label();
  const TermDictionary& dict = query.dict();
  if (!query.IsVariableLabel(sink)) {
    return index.PathsWithSinkMatching(dict.term(sink), thesaurus,
                                       lookup_stats);
  }
  TermId last_constant = query.LastConstantFromSink(q);
  if (last_constant != kInvalidTermId) {
    return index.PathsContaining(dict.term(last_constant), thesaurus,
                                 lookup_stats);
  }
  // All-variable query path: every path is a candidate.
  std::vector<PathId> all(index.path_count());
  for (PathId i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

// Candidates per parallel work unit. Small enough that a handful of
// clusters still spreads across every core, large enough that the
// per-chunk LabelComparator memo cache amortises.
constexpr size_t kChunkSize = 128;

// One scoring work unit: candidates[begin, end) of one cluster.
struct ChunkWork {
  size_t cluster = 0;
  size_t begin = 0;
  size_t end = 0;
};

// Scores one candidate chunk. Thread-safe: every shared structure it
// touches (index postings, stores behind their own lock-free read
// paths, the dictionary) is read-only during query processing; each
// chunk uses its own LabelComparator because its memo cache mutates.
//
// The early-exit cutoff is chunk-local: an alignment aborts only when
// its λ provably cannot make the top `cap` of its own chunk — a subset
// of the top `cap` overall — so dropping it can never change the final
// cluster. The sequential path runs the whole cluster as one chunk and
// recovers the original global cutoff exactly.
Status ScoreChunk(const QueryGraph& query, const Path& q,
                  const std::vector<PathId>& candidates,
                  const ChunkWork& work, const PathIndex& index,
                  const Thesaurus* thesaurus, const ScoreParams& params,
                  const ClusteringOptions& options,
                  const QueryCaches* caches, const QueryObs* obs,
                  std::vector<ScoredPath>* out,
                  std::atomic<uint64_t>* corrupt_skipped,
                  std::atomic<uint64_t>* io_retried) {
  // Chunk span, parented explicitly under the clustering-phase span —
  // this code usually runs on a pool worker, where the caller's
  // thread-local current span is invisible.
  ObsSpan span;
  if (obs != nullptr && obs->trace != nullptr) {
    span = ObsSpan(obs->trace, "score_chunk", obs->parent_span);
  }
  // Chunk-local attribution counters: tallied without atomics during
  // the scan, merged into the query's deltas once at chunk end.
  QueryCacheDeltas* deltas = obs != nullptr ? obs->deltas : nullptr;
  CacheCounters local_records, local_labels, local_alignments,
      local_thesaurus;
  LabelComparator cmp(&query.dict(), thesaurus,
                      caches != nullptr ? caches->label_matches : nullptr);
  if (deltas != nullptr) {
    cmp.SetStatsSinks(&local_labels, &local_thesaurus);
  }
  AlignmentMemo* memo =
      caches != nullptr ? caches->alignment_memo : nullptr;
  // One key build per chunk; candidates only rewrite its 8-byte id.
  AlignmentMemo::QueryKey memo_key;
  if (memo != nullptr) {
    memo_key = AlignmentMemo::MakeQueryKey(q, cmp, params);
  }
  const size_t cap = options.max_candidates_per_cluster;
  const bool early_exit = options.early_exit_alignment && cap != 0;
  // Track the cap-th best λ seen so far in this chunk; alignments
  // provably worse abort early (the small epsilon keeps boundary ties
  // completing, so results match the exact computation).
  double cutoff = std::numeric_limits<double>::infinity();
  std::priority_queue<double> kept_lambdas;  // Max-heap of the best n.
  for (size_t c = work.begin; c < work.end; ++c) {
    ScoredPath sp;
    sp.id = candidates[c];
    bool skip = false;
    SAMA_RETURN_IF_ERROR(
        LoadCandidate(index, sp.id, options, &sp.path, &skip, corrupt_skipped,
                      io_retried, deltas != nullptr ? &local_records : nullptr));
    if (skip) continue;
    double effective_cutoff =
        early_exit ? cutoff : std::numeric_limits<double>::infinity();
    sp.alignment =
        memo != nullptr
            ? memo->AlignCached(&memo_key, sp.id, *sp.path, q, cmp, params,
                                effective_cutoff,
                                deltas != nullptr ? &local_alignments : nullptr)
            : std::make_shared<const PathAlignment>(
                  Align(*sp.path, q, cmp, params, effective_cutoff));
    // Cannot make the top n. A greedy alignment reaches the cutoff iff
    // the scan under it aborts, so this also covers the memo's full
    // entries, which are served as stored rather than copied just to
    // set `aborted`. The DP never aborts; an alignment of its past the
    // cutoff trails the chunk's `cap` kept ones strictly and would be
    // cut by the cluster's top-n anyway.
    if (sp.alignment->aborted || sp.lambda() >= effective_cutoff) continue;
    if (early_exit) {
      kept_lambdas.push(sp.lambda());
      if (kept_lambdas.size() > cap) kept_lambdas.pop();
      if (kept_lambdas.size() == cap) {
        cutoff = kept_lambdas.top() + 1e-9;
      }
    }
    out->push_back(std::move(sp));
  }
  if (deltas != nullptr) {
    deltas->records.Merge(local_records);
    deltas->label_matches.Merge(local_labels);
    deltas->alignments.Merge(local_alignments);
    deltas->thesaurus.Merge(local_thesaurus);
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<Cluster>> BuildClusters(const QueryGraph& query,
                                           const PathIndex& index,
                                           const Thesaurus* thesaurus,
                                           const ScoreParams& params,
                                           const ClusteringOptions& options,
                                           ThreadPool* pool,
                                           std::atomic<uint64_t>* busy_nanos,
                                           std::atomic<uint64_t>* corrupt_skipped,
                                           std::atomic<uint64_t>* io_retried,
                                           const QueryCaches* caches,
                                           const QueryObs* obs) {
  const bool parallel = pool != nullptr && pool->worker_count() > 0;

  const size_t n = query.paths().size();
  std::vector<Cluster> clusters(n);

  // Phase 1 (sequential, index lookups only): candidate lists + the
  // chunked work plan. Sequential runs use one whole-cluster chunk so
  // the early-exit cutoff spans the full candidate list, as before.
  // Phase-1 lookups run on the calling thread, so a plain local sink
  // suffices; merged into the query's deltas after the loop.
  QueryCacheDeltas* deltas = obs != nullptr ? obs->deltas : nullptr;
  IndexCacheCounters lookup_stats;
  std::vector<std::vector<PathId>> candidates(n);
  std::vector<ChunkWork> plan;
  std::vector<size_t> first_chunk_of(n + 1, 0);
  for (size_t qi = 0; qi < n; ++qi) {
    clusters[qi].query_path_index = qi;
    candidates[qi] =
        Candidates(query, query.paths()[qi], index, thesaurus,
                   deltas != nullptr ? &lookup_stats : nullptr);
    size_t total = candidates[qi].size();
    size_t step = parallel ? kChunkSize : (total == 0 ? 1 : total);
    for (size_t begin = 0; begin < total; begin += step) {
      plan.push_back({qi, begin, std::min(begin + step, total)});
    }
    first_chunk_of[qi + 1] = plan.size();
  }
  if (deltas != nullptr) deltas->lookups.Merge(lookup_stats.lookups);

  // Phase 2: score every chunk, possibly across threads. Output slots
  // are disjoint; ParallelFor reports the lowest failing chunk.
  std::vector<std::vector<ScoredPath>> chunk_out(plan.size());
  SAMA_RETURN_IF_ERROR(ParallelFor(
      parallel ? pool : nullptr, plan.size(),
      [&](size_t w) -> Status {
        const ChunkWork& work = plan[w];
        return ScoreChunk(query, query.paths()[work.cluster],
                          candidates[work.cluster], work, index, thesaurus,
                          params, options, caches, obs, &chunk_out[w],
                          corrupt_skipped, io_retried);
      },
      busy_nanos));

  // Phase 3 (sequential): stitch chunks back in candidate order, then
  // impose the canonical cluster order — best alignment first (lowest
  // λ), ties by path id. Chunk boundaries and thread interleaving are
  // invisible after this sort, which is what makes parallel clustering
  // bit-identical to sequential.
  for (size_t qi = 0; qi < n; ++qi) {
    Cluster& cluster = clusters[qi];
    for (size_t w = first_chunk_of[qi]; w < first_chunk_of[qi + 1]; ++w) {
      for (ScoredPath& sp : chunk_out[w]) {
        cluster.paths.push_back(std::move(sp));
      }
    }
    std::sort(cluster.paths.begin(), cluster.paths.end(),
              [](const ScoredPath& a, const ScoredPath& b) {
                if (a.lambda() != b.lambda()) return a.lambda() < b.lambda();
                return a.id < b.id;
              });
    if (options.max_candidates_per_cluster != 0 &&
        cluster.paths.size() > options.max_candidates_per_cluster) {
      cluster.paths.resize(options.max_candidates_per_cluster);
    }
  }
  return clusters;
}

}  // namespace sama
