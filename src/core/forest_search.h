#ifndef SAMA_CORE_FOREST_SEARCH_H_
#define SAMA_CORE_FOREST_SEARCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/intersection_graph.h"
#include "core/score_params.h"
#include "query/query_graph.h"

namespace sama {

// One generated answer: a combination of one scored path per
// (non-empty) cluster, with the full score decomposition
// score = Λ + Ψ (§4.1) plus the penalty for query paths whose cluster
// was empty.
struct Answer {
  // One entry per non-empty cluster, parallel to `query_path_index`.
  std::vector<ScoredPath> parts;
  std::vector<size_t> query_path_index;

  double lambda_total = 0;   // Λ(a, Q) + empty-cluster penalty.
  double psi_total = 0;      // Ψ(a, Q).
  double score = 0;          // lambda_total + psi_total.
  Substitution binding;      // Merged φ (first binding wins on conflict).
  bool consistent = true;    // No variable bound to two values.

  // Canonical enumeration rank: the candidate index chosen at each
  // join position, in join order. Equal scores are ordered by this key
  // everywhere (the k cut, dedup winners), which makes the ranked list
  // a pure function of the clusters — independent of wave scheduling,
  // budget shares, retry rounds and thread count.
  std::vector<uint32_t> enum_key;

  // The answer's subgraph as triples (s, p, o) of dictionary terms,
  // deduplicated — τ(φ(Q)) materialised.
  std::vector<Triple> ToTriples(const TermDictionary& dict) const;

  // The bound values of `vars` (names without '?'); unbound variables
  // yield empty-string literals. Used to compare answers across
  // systems.
  std::vector<Term> BindingTuple(const std::vector<std::string>& vars) const;
};

struct ForestSearchOptions {
  // Number of answers to produce; 0 = every combination the expansion
  // budget reaches (the paper's "without imposing the number k").
  size_t k = 10;
  // Require χ(pi, pj) > 0 for every intersection-query-graph edge whose
  // clusters are both non-empty — the paths of a solution must connect
  // the way the query's paths do ("the intersection query graph allows
  // us to verify efficiently if they form a solution", §5). A dashed
  // Figure-4 edge (ψ < 1) still connects; a pair sharing no node does
  // not. On by default.
  bool require_connected = true;
  // Optional predicate over the merged bindings; answers failing it are
  // not kept (SPARQL FILTER support). Null = keep everything.
  std::function<bool(const Substitution&)> binding_filter;
  // When non-empty, answers are deduplicated on the binding tuple of
  // these variables (SPARQL projection semantics): for each distinct
  // tuple only the best-scored combination is kept. ExecuteSparql sets
  // this to the SELECT variables.
  std::vector<std::string> dedup_vars;
  // Budget on branch-and-bound steps. Within the budget the returned
  // top-k ranking is provably exact; once it is exhausted the search
  // returns the best combinations found so far (the paper's own search
  // likewise generates the top-k heuristically, §5).
  size_t max_expansions = 50000;
  // Absolute steady-clock deadline for the anytime search; the epoch
  // default means no deadline. Past the deadline the scheduler stops
  // starting waves, running subtrees abort at their next periodic
  // check, and the best answers found so far are returned with
  // ForestSearchStats::truncated set — exactly the expansion-budget
  // anytime semantics, driven by time. SamaEngine replaces it with a
  // set QueryContext::deadline, which the serving layer derives from
  // the per-request deadline_ms. Unlike every other option a
  // deadline makes answers scheduling-dependent (how far the search
  // got before the clock ran out), so the determinism contract only
  // covers searches without one.
  std::chrono::steady_clock::time_point deadline{};
};

// Observability counters for one ForestSearch call, reported through
// QueryStats and sama_cli --stats. Pruning counters stay zero when
// params.prune_search is off (the exhaustive ablation).
struct ForestSearchStats {
  // Branch-and-bound steps actually taken (root placements + candidate
  // placements), i.e. the part of options.max_expansions consumed.
  uint64_t expansions = 0;
  // Candidate placements skipped because the admissible Λ + Ψ lower
  // bound of their prefix could not beat the current k-th best score.
  uint64_t bound_pruned = 0;
  // Whole root subtrees skipped by the wave scheduler's λ-only root
  // bound (subtree roots are λ-sorted, so one failure ends the search).
  uint64_t roots_pruned = 0;
  // True when any part of the combination space went unexamined for
  // budget reasons: a subtree exhausted its per-subtree share, or the
  // wave loop stopped with subtrees left. While false, the returned
  // top-k is provably exact (pruning only skips bound-refuted work);
  // once true the answers are the anytime best-so-far. Note truncation
  // can occur even when expansions < max_expansions, because the budget
  // is split into per-subtree shares.
  bool truncated = false;

  // Skipped work over total work considered — 0 when nothing was
  // pruned (e.g. prune_search off).
  double PruningRatio() const {
    double skipped = static_cast<double>(bound_pruned + roots_pruned);
    double considered = skipped + static_cast<double>(expansions);
    return considered == 0 ? 0.0 : skipped / considered;
  }
};

// The search's read-only tables for one query shape and one set of
// clusters (DESIGN.md §6, §8): the join order, per join position the
// candidates' λ, node sets and path ids, per intersection-graph edge
// its ψ table and connectivity rows, and the bounds' fixed costs and
// suffix sums. A pure function of the query paths, `require_connected`,
// the score parameters and the clusters' (path id, λ) sequences. It
// holds no pointer into the clusters, so it stays valid after they are
// gone, and it is never written after BuildSearchTables returns, so
// any number of searches may share one. Defined in forest_search.cc.
struct SearchTables;

// Builds the tables for `clusters` (one ParallelFor task per join
// position, then one per edge; identical at every thread count).
// `busy_nanos`, when non-null, accumulates the time threads spent.
Result<std::shared_ptr<const SearchTables>> BuildSearchTables(
    const QueryGraph& query, const IntersectionQueryGraph& ig,
    const std::vector<Cluster>& clusters, const ScoreParams& params,
    bool require_connected, ThreadPool* pool = nullptr,
    std::atomic<uint64_t>* busy_nanos = nullptr);

// True when `clusters` hold exactly the (path id, λ) sequences, cluster
// by cluster, that `tables` were built from, so the tables equal what
// BuildSearchTables would build from them under the same query shape
// and parameters (path ids name immutable records).
bool SearchTablesMatch(const SearchTables& tables,
                       const std::vector<Cluster>& clusters);

// Heap bytes the tables hold.
size_t SearchTablesBytes(const SearchTables& tables);

// The Search step (§5): organises the clusters' paths into a forest
// whose edges carry ⟨(qi,qj):[ψ]⟩ labels and generates the top-k
// solutions best-first by Σλ with exact rescoring by Λ + Ψ. Worst case
// O(h·I²) in the paper's notation. Answers come back sorted by
// ascending score (most relevant first).
//
// The combination space is decomposed into one independent subtree per
// first-join-position candidate; subtrees are searched in fixed-size
// waves, concurrently when `pool` is non-null. Each subtree is a pure
// function of (subtree index, inherited threshold, budget share), and
// wave results merge in subtree order with stable score/answer-id
// tie-breaks, so the answers are bit-identical for every thread count
// — see DESIGN.md "Threading model". `busy_nanos`, when non-null,
// accumulates the time threads spent searching.
// `fstats`, when non-null, receives the expansion/pruning counters of
// this call (overwritten, not accumulated).
//
// `tables` must have been built from `clusters`' (path id, λ)
// sequences (SearchTablesMatch) under `params` and
// options.require_connected (InvalidArgument otherwise); each answer's
// parts and φ are read from `clusters`.
Result<std::vector<Answer>> SearchForest(
    const SearchTables& tables, const std::vector<Cluster>& clusters,
    const ScoreParams& params, const ForestSearchOptions& options,
    ThreadPool* pool = nullptr, std::atomic<uint64_t>* busy_nanos = nullptr,
    ForestSearchStats* fstats = nullptr);

// BuildSearchTables, then SearchForest over the fresh tables.
Result<std::vector<Answer>> ForestSearch(
    const QueryGraph& query, const IntersectionQueryGraph& ig,
    const std::vector<Cluster>& clusters, const ScoreParams& params,
    const ForestSearchOptions& options, ThreadPool* pool = nullptr,
    std::atomic<uint64_t>* busy_nanos = nullptr,
    ForestSearchStats* fstats = nullptr);

}  // namespace sama

#endif  // SAMA_CORE_FOREST_SEARCH_H_
