#include "core/forest_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/score.h"

namespace sama {

std::vector<Triple> Answer::ToTriples(const TermDictionary& dict) const {
  std::vector<Triple> out;
  for (const ScoredPath& part : parts) {
    const Path& p = part.path;
    for (size_t i = 0; i + 1 < p.node_labels.size(); ++i) {
      out.push_back(Triple{dict.term(p.node_labels[i]),
                           dict.term(p.edge_labels[i]),
                           dict.term(p.node_labels[i + 1])});
    }
  }
  std::sort(out.begin(), out.end(), [](const Triple& a, const Triple& b) {
    if (!(a.subject == b.subject)) return a.subject < b.subject;
    if (!(a.predicate == b.predicate)) return a.predicate < b.predicate;
    return a.object < b.object;
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Term> Answer::BindingTuple(
    const std::vector<std::string>& vars) const {
  std::vector<Term> out;
  out.reserve(vars.size());
  for (const std::string& var : vars) {
    const Term* bound = binding.Lookup(var);
    out.push_back(bound != nullptr ? *bound : Term::Literal(""));
  }
  return out;
}

namespace {

// Subtrees searched per scheduling wave when the join has more than one
// level. The wave size is part of the determinism contract — it is
// fixed by the query shape, NEVER by the thread count: every subtree in
// a wave inherits the same pruning threshold, and the threshold/budget
// only advance between waves, so any interleaving of a wave's subtrees
// produces the same answers. Single-level joins (m == 1) use waves of
// one, which recovers the classic candidate-by-candidate scan with a
// threshold refresh after every emit.
constexpr size_t kWaveSize = 16;

// The join order over the active (non-empty) clusters, as positions
// into `active`: start from the smallest, then greedily add the cluster
// most connected (via IG edges) to the ones already ordered, size
// breaking ties, so connectivity violations surface at depth 2 instead
// of depth m.
std::vector<size_t> JoinOrder(const IntersectionQueryGraph& ig,
                              const std::vector<const Cluster*>& active) {
  const size_t m = active.size();
  auto size_of = [&](size_t i) { return active[i]->size(); };
  auto qp_of = [&](size_t i) { return active[i]->query_path_index; };
  std::vector<size_t> order;
  std::vector<bool> placed(m, false);
  size_t first = 0;
  for (size_t i = 1; i < m; ++i) {
    if (size_of(i) < size_of(first)) first = i;
  }
  order.push_back(first);
  placed[first] = true;
  while (order.size() < m) {
    size_t best = m;
    size_t best_links = 0;
    for (size_t i = 0; i < m; ++i) {
      if (placed[i]) continue;
      size_t links = 0;
      for (size_t j : order) {
        if (ig.ChiQ(qp_of(i), qp_of(j)) > 0) ++links;
      }
      if (best == m || links > best_links ||
          (links == best_links && size_of(i) < size_of(best))) {
        best = i;
        best_links = links;
      }
    }
    order.push_back(best);
    placed[best] = true;
  }
  return order;
}

}  // namespace

Result<std::vector<Answer>> ForestSearch(const QueryGraph& query,
                                         const IntersectionQueryGraph& ig,
                                         const std::vector<Cluster>& clusters,
                                         const ScoreParams& params,
                                         const ForestSearchOptions& options,
                                         ThreadPool* pool,
                                         std::atomic<uint64_t>* busy_nanos,
                                         ForestSearchStats* fstats) {
  if (fstats != nullptr) *fstats = ForestSearchStats{};
  // Per-request deadline (ForestSearchOptions::deadline): checked at
  // wave boundaries and, inside a subtree, every 64 expansions. With no
  // deadline set the clock is never read, so deadline support cannot
  // perturb the deterministic path.
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  auto past_deadline = [&options, has_deadline]() {
    return has_deadline && std::chrono::steady_clock::now() >= options.deadline;
  };
  // Score-bounded pruning (params.prune_search) may ONLY skip work the
  // bounds prove irrelevant: with it off, the same enumeration runs
  // exhaustively and must produce byte-identical answers (ranked list
  // AND tie-breaks) — tests/core/forest_pruning_test.cc compares both
  // modes candidate for candidate.
  const bool prune = params.prune_search;
  // Split clusters into the active (non-empty) ones we combine over and
  // the empty ones we charge a deletion penalty for.
  std::vector<const Cluster*> active;
  std::vector<size_t> active_query_path;
  double empty_penalty = 0;
  std::vector<size_t> empty_query_paths;
  for (const Cluster& c : clusters) {
    if (!c.empty()) {
      active.push_back(&c);
      active_query_path.push_back(c.query_path_index);
      continue;
    }
    if (!options.allow_partial) return std::vector<Answer>{};
    const Path& q = query.paths()[c.query_path_index];
    empty_penalty +=
        params.a() * static_cast<double>(q.node_labels.size()) +
        params.c() * static_cast<double>(q.edge_labels.size());
    empty_query_paths.push_back(c.query_path_index);
  }
  if (active.empty()) return std::vector<Answer>{};

  // Ψ contribution of IG edges touching an empty cluster: the answer
  // pair shares nothing, costing e·|χ(qi,qj)| (the |χ(pi,pj)|=0 branch).
  double empty_psi = 0;
  for (const IntersectionQueryGraph::SharedEdge& edge : ig.edges()) {
    bool i_empty =
        std::find(empty_query_paths.begin(), empty_query_paths.end(),
                  edge.qi) != empty_query_paths.end();
    bool j_empty =
        std::find(empty_query_paths.begin(), empty_query_paths.end(),
                  edge.qj) != empty_query_paths.end();
    if (i_empty || j_empty) {
      empty_psi += PsiCost(edge.shared.size(), 0, params);
    }
  }
  const double fixed_cost = empty_penalty + empty_psi;

  const size_t m = active.size();
  const std::vector<size_t> order = JoinOrder(ig, active);

  auto candidate = [&](size_t pos, size_t idx) -> const ScoredPath& {
    return active[order[pos]]->paths[idx];
  };

  // ---- Shared read-only precomputation. Everything from here to the
  // subtree searcher is immutable during the search, so concurrent
  // subtrees capture it freely.

  // Sorted node-id sets per candidate, so χ(pi, pj) inside the search
  // loop is a linear merge without sorting or allocation.
  std::vector<std::vector<std::vector<NodeId>>> sorted_nodes(m);
  for (size_t pos = 0; pos < m; ++pos) {
    sorted_nodes[pos].reserve(active[order[pos]]->size());
    for (const ScoredPath& sp : active[order[pos]]->paths) {
      std::vector<NodeId> nodes = sp.path.nodes;
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      sorted_nodes[pos].push_back(std::move(nodes));
    }
  }
  // node id -> candidate indices per join position (ascending, i.e. in
  // λ order), used to enumerate only candidates that can connect to the
  // prefix when require_connected is set.
  std::vector<std::unordered_map<NodeId, std::vector<size_t>>>
      candidates_by_node(m);
  for (size_t pos = 0; pos < m; ++pos) {
    for (size_t idx = 0; idx < sorted_nodes[pos].size(); ++idx) {
      for (NodeId n : sorted_nodes[pos][idx]) {
        candidates_by_node[pos][n].push_back(idx);
      }
    }
  }

  auto chi_between = [&](size_t pos_a, size_t idx_a, size_t pos_b,
                         size_t idx_b) {
    const std::vector<NodeId>& a = sorted_nodes[pos_a][idx_a];
    const std::vector<NodeId>& b = sorted_nodes[pos_b][idx_b];
    size_t i = 0, j = 0, common = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    return common;
  };

  // Longest candidate path per join position — bounds the achievable
  // χ(pi, pj), hence the minimum ψ of a pending edge.
  std::vector<size_t> max_len(m, 1);
  for (size_t pos = 0; pos < m; ++pos) {
    for (const ScoredPath& sp : active[order[pos]]->paths) {
      max_len[pos] = std::max(max_len[pos], sp.path.length());
    }
  }

  // IG edges translated to join positions. An edge "completes" at its
  // later position.
  struct JoinEdge {
    size_t earlier;
    size_t chi_q;
  };
  std::vector<std::vector<JoinEdge>> edges_completing_at(m);
  std::vector<double> psi_lb_suffix(m + 1, 0.0);
  std::vector<double> psi_lb_at(m, 0.0);
  {
    // Map query-path index -> join position.
    std::vector<size_t> position_of_query_path(query.paths().size(), m);
    for (size_t pos = 0; pos < m; ++pos) {
      position_of_query_path[active_query_path[order[pos]]] = pos;
    }
    std::vector<double>& lb_at = psi_lb_at;
    for (const IntersectionQueryGraph::SharedEdge& edge : ig.edges()) {
      size_t a = position_of_query_path[edge.qi];
      size_t b = position_of_query_path[edge.qj];
      if (a >= m || b >= m) continue;  // Touches an empty cluster.
      if (a > b) std::swap(a, b);
      edges_completing_at[b].push_back(JoinEdge{a, edge.shared.size()});
      size_t max_chi = std::min(max_len[a], max_len[b]);
      lb_at[b] += params.e * static_cast<double>(edge.shared.size()) /
                  static_cast<double>(max_chi);
    }
    for (size_t pos = m; pos-- > 0;) {
      psi_lb_suffix[pos] = psi_lb_suffix[pos + 1] + lb_at[pos];
    }
  }

  // Admissible λ remainder: Σ of each unplaced cluster's best λ.
  std::vector<double> min_lambda_suffix(m + 1, 0.0);
  for (size_t pos = m; pos-- > 0;) {
    min_lambda_suffix[pos] =
        min_lambda_suffix[pos + 1] + candidate(pos, 0).lambda();
  }

  auto tuple_key = [&](const Answer& answer) {
    std::string key;
    for (const Term& t : answer.BindingTuple(options.dedup_vars)) {
      key += t.ToString();
      key += '\x1f';
    }
    return key;
  };

  // Inserts `answer` into a list sorted by (score, enumeration key)
  // with dedup-on-tuple and top-k truncation. Because equal scores are
  // ordered by the canonical enumeration key — NOT by insertion order —
  // the resulting list is the same no matter how emission was scheduled
  // across waves, retry rounds or shards: it is always "the k best by
  // (score, enum_key) among everything ever inserted".
  auto rank_before = [](const Answer& a, const Answer& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.enum_key < b.enum_key;
  };
  auto keep = [&](std::vector<Answer>&& batch, std::vector<Answer>* into,
                  std::unordered_map<std::string, double>* best_by_tuple) {
    for (Answer& answer : batch) {
      if (!options.dedup_vars.empty()) {
        std::string key = tuple_key(answer);
        auto [it, inserted] = best_by_tuple->emplace(key, answer.score);
        if (!inserted) {
          if (answer.score > it->second) continue;  // Kept one is better.
          // Locate the previously kept answer for this tuple; on a
          // score tie the canonically earlier enumeration wins, so the
          // dedup representative is schedule-independent too.
          auto r = into->begin();
          for (; r != into->end(); ++r) {
            if (r->score == it->second && tuple_key(*r) == key) break;
          }
          if (r != into->end()) {
            if (answer.score == r->score && !(answer.enum_key < r->enum_key)) {
              continue;
            }
            into->erase(r);
          }
          it->second = answer.score;
        }
      }
      auto at = std::upper_bound(into->begin(), into->end(), answer,
                                 rank_before);
      into->insert(at, std::move(answer));
      if (options.k != 0 && into->size() > options.k) {
        if (!options.dedup_vars.empty()) {
          best_by_tuple->erase(tuple_key(into->back()));
        }
        into->pop_back();
      }
    }
  };

  // ---- The subtree searcher: a depth-first branch and bound with
  // candidate `root` fixed at join position 0. It is a pure function of
  // (root, inherited threshold, budget share) over the immutable
  // precomputation above — the determinism contract hangs on that
  // purity, because it makes results independent of WHICH thread runs
  // the subtree and WHEN. A prefix is pruned when its admissible lower
  // bound
  //   fixed_cost + Σλ(prefix) + Σ minλ(remaining)
  //   + exact ψ of edges inside the prefix + ψ lower bounds of pending
  //     edges
  // cannot beat min(inherited threshold, k-th locally kept answer), or
  // when the freshly placed candidate breaks connectivity/binding
  // requirements. Returns the expansions actually used (<= share).
  // ALL pruning is strictly-worse-loses (`bound > θ`, never `>=`): a
  // threshold θ is the k-th best score of a real answer set, so an
  // answer with score > θ is provably outside the top-k, while an
  // equal-score tie must be emitted and settled by the canonical
  // enumeration key in `keep`. That strictness is what makes the tie
  // tail independent of wave scheduling and retry rounds —
  // byte-identity across both hangs on it.
  auto search_subtree = [&](size_t root, double inherited_threshold,
                            size_t share, std::vector<Answer>* out,
                            size_t* pruned_out, bool* truncated_out) {
    std::vector<size_t> choice(m, 0);
    std::vector<double> psi_prefix(m + 1, 0.0);  // ψ of edges in prefix.
    std::vector<double> lambda_prefix(m + 1, 0.0);
    std::unordered_map<std::string, double> local_best;
    size_t used = 0;
    size_t pruned = 0;
    bool out_of_budget = false;

    // The wave θ tightened by the k-th locally kept answer.
    auto threshold = [&]() {
      double local = (options.k != 0 && out->size() >= options.k)
                         ? out->back().score
                         : std::numeric_limits<double>::infinity();
      return std::min(inherited_threshold, local);
    };

    auto emit = [&](double lambda_sum, double psi_sum) {
      Answer answer;
      answer.lambda_total = empty_penalty + lambda_sum;
      answer.psi_total = empty_psi + psi_sum;
      answer.score = answer.lambda_total + answer.psi_total;
      answer.parts.resize(m);
      answer.query_path_index.resize(m);
      answer.enum_key.resize(m);
      for (size_t pos = 0; pos < m; ++pos) {
        // Restore the original cluster order in the answer.
        answer.parts[order[pos]] = candidate(pos, choice[pos]);
        answer.query_path_index[order[pos]] = active_query_path[order[pos]];
        answer.enum_key[pos] = static_cast<uint32_t>(choice[pos]);
      }
      // Merge φ best-alignment-first: when paths disagree on a shared
      // variable, the binding from the better-aligned (lower λ) path
      // wins.
      {
        std::vector<const ScoredPath*> by_lambda;
        by_lambda.reserve(answer.parts.size());
        for (const ScoredPath& part : answer.parts) {
          by_lambda.push_back(&part);
        }
        std::stable_sort(by_lambda.begin(), by_lambda.end(),
                         [](const ScoredPath* a, const ScoredPath* b) {
                           return a->lambda() < b->lambda();
                         });
        for (const ScoredPath* part : by_lambda) {
          if (!answer.binding.Merge(part->alignment.phi)) {
            answer.consistent = false;
          }
        }
      }
      if (options.require_consistent_bindings && !answer.consistent) return;
      if (options.binding_filter &&
          !options.binding_filter(answer.binding)) {
        return;
      }
      std::vector<Answer> one;
      one.push_back(std::move(answer));
      keep(std::move(one), out, &local_best);
    };

    // Recursive lambda over join positions 1..m (position 0 is fixed).
    auto descend = [&](auto&& self, size_t pos) -> void {
      if (out_of_budget) return;
      if (pos == m) {
        emit(lambda_prefix[m], psi_prefix[m]);
        return;
      }
      const std::vector<ScoredPath>& paths = active[order[pos]]->paths;
      // When this position must connect to already-placed paths, only
      // candidates sharing a node with EVERY one of them can be valid:
      // intersect, over the back edges, the union of candidate lists of
      // the anchor path's nodes. The result stays index-ascending, i.e.
      // λ-ordered.
      std::vector<size_t> narrowed;
      bool use_narrowed = false;
      if (options.require_connected && !edges_completing_at[pos].empty()) {
        use_narrowed = true;
        bool first_edge = true;
        for (const JoinEdge& back : edges_completing_at[pos]) {
          std::vector<size_t> sharing;
          for (NodeId n :
               sorted_nodes[back.earlier][choice[back.earlier]]) {
            auto it = candidates_by_node[pos].find(n);
            if (it == candidates_by_node[pos].end()) continue;
            sharing.insert(sharing.end(), it->second.begin(),
                           it->second.end());
          }
          std::sort(sharing.begin(), sharing.end());
          sharing.erase(std::unique(sharing.begin(), sharing.end()),
                        sharing.end());
          if (first_edge) {
            narrowed = std::move(sharing);
            first_edge = false;
          } else {
            std::vector<size_t> both;
            std::set_intersection(narrowed.begin(), narrowed.end(),
                                  sharing.begin(), sharing.end(),
                                  std::back_inserter(both));
            narrowed = std::move(both);
          }
          if (narrowed.empty()) break;
        }
      }
      const size_t candidate_count =
          use_narrowed ? narrowed.size() : paths.size();
      for (size_t pick = 0; pick < candidate_count; ++pick) {
        size_t idx = use_narrowed ? narrowed[pick] : pick;
        if (++used > share) {
          out_of_budget = true;
          return;
        }
        // Deadline poll, amortised so the clock read stays off the
        // per-expansion path. Aborting reuses the budget-exhaustion
        // path: the attempt's answers are held as anytime leftovers.
        if (has_deadline && (used & 63) == 0 && past_deadline()) {
          out_of_budget = true;
          return;
        }
        const ScoredPath& sp = paths[idx];
        // λ-only bound: candidates are sorted by λ, so once it fails no
        // later candidate at this position can succeed either.
        double lambda_sum = lambda_prefix[pos] + sp.lambda();
        double optimistic = fixed_cost + lambda_sum +
                            min_lambda_suffix[pos + 1] + psi_prefix[pos] +
                            psi_lb_suffix[pos];
        if (prune && optimistic > threshold()) {
          pruned += candidate_count - pick;
          break;
        }

        // Exact ψ of the edges this position completes, plus validity.
        double psi_here = 0;
        bool valid = true;
        for (const JoinEdge& edge : edges_completing_at[pos]) {
          size_t chi_p =
              chi_between(edge.earlier, choice[edge.earlier], pos, idx);
          if (chi_p == 0 && options.require_connected) {
            valid = false;
            break;
          }
          psi_here += PsiCost(edge.chi_q, chi_p, params);
        }
        if (valid && options.require_consistent_bindings) {
          for (size_t j = 0; j < pos; ++j) {
            if (!candidate(j, choice[j])
                     .alignment.phi.CompatibleWith(sp.alignment.phi)) {
              valid = false;
              break;
            }
          }
        }
        if (!valid) continue;
        double full_bound = optimistic + psi_here - psi_lb_at[pos];
        if (prune && full_bound > threshold()) {
          ++pruned;
          continue;
        }

        choice[pos] = idx;
        lambda_prefix[pos + 1] = lambda_sum;
        psi_prefix[pos + 1] = psi_prefix[pos] + psi_here;
        self(self, pos + 1);
        if (out_of_budget) return;
      }
    };

    // Place the root (one expansion, like any other candidate) and
    // recurse over the remaining positions.
    ++used;
    choice[0] = root;
    lambda_prefix[1] = candidate(0, root).lambda();
    psi_prefix[1] = 0.0;  // No edge completes at position 0.
    descend(descend, 1);
    *pruned_out = pruned;
    *truncated_out = out_of_budget;
    return used;
  };

  // ---- Wave scheduler. Subtrees run in waves; between waves the
  // global top-k (hence the pruning threshold) and the deterministic
  // budget account advance. All scheduling decisions depend only on
  // query shape, options and previously merged results — never on the
  // thread count or timing.
  // The expansion budget is dealt out in rounds of per-subtree shares
  // with rollover and retry: each round slices the unspent budget
  // evenly over the subtrees still unfinished, so budget a subtree did
  // not use (or that a root-bound prune released) funds deeper shares
  // later. A subtree that exhausts its share is retried in a later
  // round once the share has grown past the one it was truncated at;
  // its best-so-far answers are held back — merged only if it never
  // completes — so a retry can never double-insert. This lets any
  // query whose TOTAL pruned work fits the budget run to completion
  // even when the work is concentrated in a few subtrees, where a
  // static budget/num_subtrees split would truncate them. All
  // scheduling state advances at wave boundaries from deterministic
  // quantities, never from thread count or timing.
  std::vector<Answer> results;
  std::unordered_map<std::string, double> best_by_tuple;
  const size_t num_subtrees = active[order[0]]->size();
  size_t total_used = 0;

  // Unfinished subtrees, always in ascending root index — which is
  // ascending root λ, the order the root bound needs.
  std::vector<size_t> queue(num_subtrees);
  for (size_t i = 0; i < num_subtrees; ++i) queue[i] = i;
  // Per subtree: the share its last truncated attempt ran under (0 =
  // never truncated) and that attempt's answers.
  std::vector<size_t> truncated_at(num_subtrees, 0);
  std::vector<std::vector<Answer>> held(num_subtrees);

  bool deadline_hit = false;
  while (!queue.empty() && total_used < options.max_expansions &&
         !deadline_hit) {
    const size_t round_remaining = options.max_expansions - total_used;
    const size_t round_share = std::max<size_t>(
        64 * m, round_remaining / queue.size());
    // Retrying a subtree at a share no larger than the one that
    // truncated it would deterministically repeat the same attempt.
    std::vector<size_t> runnable;
    for (size_t id : queue) {
      if (truncated_at[id] < round_share) runnable.push_back(id);
    }
    if (runnable.empty()) break;

    std::vector<uint8_t> completed(num_subtrees, 0);
    size_t refuted_from = num_subtrees;  // Root-bound cut (λ suffix).
    size_t next = 0;
    while (next < runnable.size() && total_used < options.max_expansions) {
      if (has_deadline && past_deadline()) {
        // Subtrees not yet attempted stay queued, so the search reports
        // truncation below exactly as budget exhaustion would.
        deadline_hit = true;
        break;
      }
      const double theta = (options.k != 0 && results.size() >= options.k)
                               ? results.back().score
                               : std::numeric_limits<double>::infinity();
      // Shrink waves near the budget boundary so the total can NEVER
      // overshoot max_expansions: a multi-subtree wave only runs when
      // the remaining budget covers every share in full, and the final
      // single-subtree wave is clipped to what is left. (m == 1 always
      // uses waves of one, which refreshes the threshold after every
      // candidate exactly like the classic sequential scan.)
      const size_t remaining = options.max_expansions - total_used;
      size_t wave_size =
          m == 1 ? 1
                 : std::min(kWaveSize,
                            std::max<size_t>(1, remaining / round_share));
      const size_t wave_share =
          wave_size == 1 ? std::min(round_share, remaining) : round_share;
      // λ-only bound of a subtree's BEST completion; runnable roots are
      // in ascending-λ order, so the first root that fails refutes
      // every queued subtree from it onward (higher λ, same bound).
      std::vector<size_t> wave;
      while (wave.size() < wave_size && next < runnable.size()) {
        double optimistic = fixed_cost +
                            candidate(0, runnable[next]).lambda() +
                            min_lambda_suffix[1] + psi_lb_suffix[0];
        if (prune && optimistic > theta) {
          refuted_from = runnable[next];
          next = runnable.size();
          break;
        }
        wave.push_back(runnable[next++]);
      }
      if (wave.empty()) break;

      std::vector<std::vector<Answer>> wave_out(wave.size());
      std::vector<size_t> wave_used(wave.size(), 0);
      std::vector<size_t> wave_pruned(wave.size(), 0);
      std::vector<uint8_t> wave_truncated(wave.size(), 0);
      if (wave.size() == 1) {
        // Inline fast path (always taken for m == 1): no task handoff
        // for a single-subtree wave.
        bool t = false;
        wave_used[0] = search_subtree(wave[0], theta, wave_share,
                                      &wave_out[0], &wave_pruned[0], &t);
        wave_truncated[0] = t ? 1 : 0;
      } else {
        SAMA_RETURN_IF_ERROR(ParallelFor(
            pool, wave.size(),
            [&](size_t w) -> Status {
              bool t = false;
              wave_used[w] = search_subtree(wave[w], theta, wave_share,
                                            &wave_out[w], &wave_pruned[w], &t);
              wave_truncated[w] = t ? 1 : 0;
              return Status::Ok();
            },
            busy_nanos));
      }

      // Deterministic merge: subtree order, then each subtree's
      // answers in its own emit order; `keep` resolves scores, dedup
      // and the k cut identically to a sequential insertion stream.
      for (size_t w = 0; w < wave.size(); ++w) {
        total_used += wave_used[w];
        if (fstats != nullptr) fstats->bound_pruned += wave_pruned[w];
        if (wave_truncated[w] != 0) {
          truncated_at[wave[w]] = wave_share;
          held[wave[w]] = std::move(wave_out[w]);
        } else {
          completed[wave[w]] = 1;
          held[wave[w]].clear();
          keep(std::move(wave_out[w]), &results, &best_by_tuple);
        }
      }
    }

    // Rebuild the queue: completed subtrees leave; refuted ones (root
    // bound > θ proves every answer in them, held ones included,
    // strictly worse than the k-th best) are dropped with their held
    // answers.
    std::vector<size_t> new_queue;
    for (size_t id : queue) {
      if (completed[id] != 0) continue;
      if (id >= refuted_from) {
        if (fstats != nullptr) ++fstats->roots_pruned;
        held[id].clear();
        continue;
      }
      new_queue.push_back(id);
    }
    queue = std::move(new_queue);
  }

  // Anytime leftovers: subtrees that never completed contribute their
  // best truncated attempt, merged in λ order.
  const bool truncated = !queue.empty();
  for (size_t id : queue) {
    if (!held[id].empty()) keep(std::move(held[id]), &results, &best_by_tuple);
  }
  if (fstats != nullptr) {
    fstats->expansions = total_used;
    fstats->truncated = truncated;
  }
  return results;
}

}  // namespace sama
