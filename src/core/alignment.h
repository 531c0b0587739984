#ifndef SAMA_CORE_ALIGNMENT_H_
#define SAMA_CORE_ALIGNMENT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "common/sharded_cache.h"
#include "core/label_comparator.h"
#include "core/score_params.h"
#include "graph/path.h"
#include "query/transformation.h"

namespace sama {

// The result of aligning a data path p against a query path q
// (Definition 6): the substitution φ on q's variables, the
// transformation τ (recorded basic operations), the Equation-1
// counters, and the resulting quality cost λ(p, q).
struct PathAlignment {
  double lambda = 0.0;
  Substitution phi;
  Transformation tau;
  // True when the scan stopped early because λ exceeded the caller's
  // cutoff; lambda then holds the partial (≥ cutoff) value and
  // phi/tau/counters cover only the scanned portion.
  bool aborted = false;

  // Equation 1 counters.
  size_t nodes_of_p_not_in_q = 0;    // n̄N: label mismatches on nodes.
  size_t edges_of_p_not_in_q = 0;    // n̄E: label mismatches on edges.
  size_t nodes_inserted_in_q = 0;    // n↑N: nodes τ inserts into q.
  size_t edges_inserted_in_q = 0;    // n↑E: edges τ inserts into q.
  // Elements τ deletes from q when q is longer than p; priced with the
  // deletion weights a and c (Theorem-1 proof: ω(ε‾N)=a, ω(ε‾E)=c).
  size_t nodes_deleted_from_q = 0;
  size_t edges_deleted_from_q = 0;

  // True when every aligned position matched exactly, via a variable,
  // or via a synonym — i.e. τ is empty and p is an exact answer path.
  bool exact() const { return lambda == 0.0; }
};

// Aligns p (a data path, constants only) against q (a query path) by a
// single backward scan from the sinks toward the sources — "contrary to
// the direction of the edges" (§4.3) — inserting, deleting and
// relabelling greedily. Runs in O(|p| + |q|), the paper's linearity
// claim, because each step consumes at least one element of p or q.
//
// Greedy rule: positions are consumed in (edge, node) pairs after the
// sink nodes are matched; when the remaining halves have equal length
// the pair is matched in place (mismatches priced a/c); when p is
// longer a non-matching pair of p is inserted into q (b+d); when q is
// longer a non-matching pair of q is deleted (a+c).
// `lambda_cutoff` enables the early-exit optimisation (a §7
// score-computation improvement): the scan aborts as soon as the
// accumulated cost reaches the cutoff, which spares full alignments
// for candidates that can no longer make a cluster's top-n. Pass
// +infinity (the default) for an exact result.
PathAlignment AlignPaths(
    const Path& p, const Path& q, const LabelComparator& cmp,
    const ScoreParams& params,
    double lambda_cutoff = std::numeric_limits<double>::infinity());

// Exact minimum-cost alignment (AlignmentMode::kOptimalDp): a dynamic
// program over (edge, node) pair units chooses the cheapest
// match/insert/delete sequence, then the traceback records τ and binds
// φ. Variable binding conflicts are charged after the fact (the DP
// treats variables as free), so λ can exceed the DP optimum by the
// conflict costs — exactly as in the greedy scanner. O(|p|·|q|).
PathAlignment AlignPathsOptimal(const Path& p, const Path& q,
                                const LabelComparator& cmp,
                                const ScoreParams& params);

// Dispatches on params.alignment_mode (the cutoff only applies to the
// greedy scanner; the DP always computes exactly).
PathAlignment Align(
    const Path& p, const Path& q, const LabelComparator& cmp,
    const ScoreParams& params,
    double lambda_cutoff = std::numeric_limits<double>::infinity());

// A thread-safe, LRU-bounded memo over Align(). Entries are keyed by
// (data path id, alignment mode, Equation-1 weights, thesaurus content
// identity, the query path's full label sequence), so a hit is
// guaranteed to describe the same computation — path ids are immutable
// once stored, TermIds never change meaning within a store's
// dictionary, and a mutated thesaurus gets a fresh identity. Entries
// are immutable and shared: a hit hands out the memoized alignment
// itself, never a copy, so it stays valid after an eviction or Clear().
//
// Cutoff handling preserves the early-exit semantics exactly
// (alignment cost accrues monotonically, so a greedy scan under cutoff
// c aborts iff the full λ ≥ c, and then its partial λ ≥ c too):
//   * a memoized FULL alignment answers ANY cutoff. It is served as
//     stored, so its λ may reach the cutoff while `aborted` stays
//     false; callers treat λ ≥ cutoff as aborted (see ScoreChunk),
//     exactly what the direct scan reports;
//   * a memoized ABORTED alignment (partial λ ≥ the cutoff it ran
//     under) answers any cutoff ≤ its partial λ (the new scan would
//     abort too); looser asks recompute and overwrite the entry.
// Callers discard a result with λ ≥ cutoff without reading φ/τ, which
// is why serving a full alignment in place of an aborted one is
// indistinguishable from the direct computation.
class AlignmentMemo {
 public:
  // The memo key of one query path: alignment mode, Equation-1
  // weights, thesaurus identity and q's full label sequence, followed
  // by a slot for the data path id. Serializing the query part is the
  // expensive part of a lookup, so ScoreChunk builds one QueryKey per
  // chunk and reuses it for every candidate: AlignCached rewrites only
  // the id slot in place, so a hit allocates nothing.
  class QueryKey {
   public:
    QueryKey() = default;

   private:
    friend class AlignmentMemo;
    std::string bytes_;  // Query part, then the 8-byte id slot.
  };
  static QueryKey MakeQueryKey(const Path& q, const LabelComparator& cmp,
                               const ScoreParams& params);

  // `capacity` entries across `shards` shards (see ShardedLruCache).
  explicit AlignmentMemo(size_t capacity, size_t shards = 8);

  // Align(p, q, cmp, params, lambda_cutoff) through the memo, as the
  // shared memo entry (see the class comment for how a result with
  // λ ≥ lambda_cutoff reads). `data_path_id` must uniquely identify
  // p's label content within the store this memo serves (PathStore ids
  // qualify). `query_key` must have been built from this call's
  // (q, cmp, params); its id slot is overwritten. `stats` (optional)
  // receives this call's memo traffic — the per-query attribution
  // sink.
  std::shared_ptr<const PathAlignment> AlignCached(
      QueryKey* query_key, uint64_t data_path_id, const Path& p,
      const Path& q, const LabelComparator& cmp, const ScoreParams& params,
      double lambda_cutoff = std::numeric_limits<double>::infinity(),
      CacheCounters* stats = nullptr);

  // Convenience overload for one-off lookups (tests, benchmarks).
  std::shared_ptr<const PathAlignment> AlignCached(
      uint64_t data_path_id, const Path& p, const Path& q,
      const LabelComparator& cmp, const ScoreParams& params,
      double lambda_cutoff = std::numeric_limits<double>::infinity()) {
    QueryKey key = MakeQueryKey(q, cmp, params);
    return AlignCached(&key, data_path_id, p, q, cmp, params, lambda_cutoff);
  }

  // Drops every entry (index rebuilds / store swaps).
  void Clear();
  CacheCounters counters() const;
  size_t size() const { return cache_.size(); }
  // Memo hits that skipped the LRU touch under write contention.
  uint64_t lock_skips() const { return cache_.lru_lock_skips(); }

 private:
  ShardedLruCache<std::string, std::shared_ptr<const PathAlignment>> cache_;
};

}  // namespace sama

#endif  // SAMA_CORE_ALIGNMENT_H_
