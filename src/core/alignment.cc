#include "core/alignment.h"

#include <cstring>

namespace sama {
namespace {

// Mutable alignment state shared by the matching helpers. Also reused
// by the DP traceback replay (AlignPathsOptimal), which drives the same
// bookkeeping through the *ForReplay hooks.
class Aligner {
 public:
  Aligner(const Path& p, const Path& q, const LabelComparator& cmp,
          const ScoreParams& params, double lambda_cutoff)
      : p_(p), q_(q), cmp_(cmp), w_(params.weights),
        cutoff_(lambda_cutoff) {}

  // Replay hooks for the DP traceback. `i`/`j` are 1-based pair counts
  // from the sink side (pair i covers p elements at index
  // p.length()-1-i).
  void MatchNodeForReplay(TermId data_label, TermId query_label) {
    MatchNode(data_label, query_label);
  }
  void MatchPairForReplay(size_t i, size_t j) {
    MatchPair(p_.length() - i, q_.length() - j);
  }
  void InsertPairForReplay() { InsertPairFromP(0); }
  void DeletePairForReplay() { DeletePairFromQ(0); }
  PathAlignment Finish() {
    out_.aborted = false;
    out_.lambda = CostSoFar();
    return std::move(out_);
  }

  PathAlignment Run() {
    // Backward scan: match the sink nodes, then consume (edge, node)
    // pairs toward the sources.
    size_t ip = p_.length() - 1;
    size_t jq = q_.length() - 1;
    MatchNode(p_.node_labels[ip], q_.node_labels[jq]);
    while ((ip > 0 || jq > 0) && !OverCutoff()) {
      if (jq == 0) {
        InsertPairFromP(ip);
        --ip;
      } else if (ip == 0) {
        DeletePairFromQ(jq);
        --jq;
      } else if (ip == jq) {
        MatchPair(ip, jq);
        --ip;
        --jq;
      } else if (ip > jq) {
        // p is longer here: prefer matching in place when the whole
        // pair is compatible, otherwise insert p's pair into q.
        if (PairCompatible(ip, jq)) {
          MatchPair(ip, jq);
          --jq;
        } else {
          InsertPairFromP(ip);
        }
        --ip;
      } else {  // jq > ip: q is longer, symmetric.
        if (PairCompatible(ip, jq)) {
          MatchPair(ip, jq);
          --ip;
        } else {
          DeletePairFromQ(jq);
        }
        --jq;
      }
    }
    out_.aborted = OverCutoff();
    out_.lambda = w_.node_delete * static_cast<double>(
                      out_.nodes_of_p_not_in_q + out_.nodes_deleted_from_q) +
                  w_.node_insert * static_cast<double>(
                      out_.nodes_inserted_in_q) +
                  w_.edge_delete * static_cast<double>(
                      out_.edges_of_p_not_in_q + out_.edges_deleted_from_q) +
                  w_.edge_insert * static_cast<double>(
                      out_.edges_inserted_in_q);
    return std::move(out_);
  }

 private:
  // Accumulated weighted cost so far, for the early-exit check.
  double CostSoFar() const {
    return w_.node_delete * static_cast<double>(
               out_.nodes_of_p_not_in_q + out_.nodes_deleted_from_q) +
           w_.node_insert * static_cast<double>(out_.nodes_inserted_in_q) +
           w_.edge_delete * static_cast<double>(
               out_.edges_of_p_not_in_q + out_.edges_deleted_from_q) +
           w_.edge_insert * static_cast<double>(out_.edges_inserted_in_q);
  }

  bool OverCutoff() const { return CostSoFar() >= cutoff_; }

  // True when the pair ending at p node ip / q node jq could be matched
  // without a constant-constant mismatch.
  bool PairCompatible(size_t ip, size_t jq) const {
    return cmp_.Compare(p_.edge_labels[ip - 1], q_.edge_labels[jq - 1]) !=
               LabelMatch::kMismatch &&
           cmp_.Compare(p_.node_labels[ip - 1], q_.node_labels[jq - 1]) !=
               LabelMatch::kMismatch;
  }

  void MatchPair(size_t ip, size_t jq) {
    MatchEdge(p_.edge_labels[ip - 1], q_.edge_labels[jq - 1]);
    MatchNode(p_.node_labels[ip - 1], q_.node_labels[jq - 1]);
  }

  void MatchNode(TermId data_label, TermId query_label) {
    switch (cmp_.Compare(data_label, query_label)) {
      case LabelMatch::kExact:
        return;
      case LabelMatch::kVariable: {
        const Term& var = cmp_.dict()->term(query_label);
        if (!out_.phi.Bind(var.value(), cmp_.dict()->term(data_label))) {
          NodeMismatch();  // Conflicting rebinding of the variable.
        }
        return;
      }
      case LabelMatch::kSynonym:
        out_.tau.Add(BasicOp::kNodeRelabel);
        return;
      case LabelMatch::kMismatch:
        NodeMismatch();
        return;
    }
  }

  void MatchEdge(TermId data_label, TermId query_label) {
    switch (cmp_.Compare(data_label, query_label)) {
      case LabelMatch::kExact:
        return;
      case LabelMatch::kVariable: {
        const Term& var = cmp_.dict()->term(query_label);
        if (!out_.phi.Bind(var.value(), cmp_.dict()->term(data_label))) {
          EdgeMismatch();
        }
        return;
      }
      case LabelMatch::kSynonym:
        out_.tau.Add(BasicOp::kEdgeRelabel);
        return;
      case LabelMatch::kMismatch:
        EdgeMismatch();
        return;
    }
  }

  void NodeMismatch() {
    ++out_.nodes_of_p_not_in_q;
    out_.tau.Add(BasicOp::kNodeDelete);
  }

  void EdgeMismatch() {
    ++out_.edges_of_p_not_in_q;
    out_.tau.Add(BasicOp::kEdgeDelete);
  }

  void InsertPairFromP(size_t ip) {
    (void)ip;
    ++out_.edges_inserted_in_q;
    ++out_.nodes_inserted_in_q;
    out_.tau.Add(BasicOp::kEdgeInsert);
    out_.tau.Add(BasicOp::kNodeInsert);
  }

  void DeletePairFromQ(size_t jq) {
    (void)jq;
    ++out_.edges_deleted_from_q;
    ++out_.nodes_deleted_from_q;
    out_.tau.Add(BasicOp::kEdgeDelete);
    out_.tau.Add(BasicOp::kNodeDelete);
  }

  const Path& p_;
  const Path& q_;
  const LabelComparator& cmp_;
  const OpWeights& w_;
  const double cutoff_;
  PathAlignment out_;
};

}  // namespace

PathAlignment AlignPaths(const Path& p, const Path& q,
                         const LabelComparator& cmp,
                         const ScoreParams& params, double lambda_cutoff) {
  return Aligner(p, q, cmp, params, lambda_cutoff).Run();
}

namespace {

// One traceback step of the DP.
enum class DpOp : uint8_t { kMatch, kInsert, kDelete };

}  // namespace

PathAlignment AlignPathsOptimal(const Path& p, const Path& q,
                                const LabelComparator& cmp,
                                const ScoreParams& params) {
  const OpWeights& w = params.weights;
  const size_t np = p.length() - 1;  // (edge, node) pair counts.
  const size_t nq = q.length() - 1;
  const double insert_cost = w.node_insert + w.edge_insert;
  const double delete_cost = w.node_delete + w.edge_delete;

  // Optimistic per-element costs: variables and synonyms are free (the
  // conflict/relabel bookkeeping happens in the replay below).
  auto node_cost = [&](size_t pi, size_t qj) {
    return cmp.Compare(p.node_labels[pi], q.node_labels[qj]) ==
                   LabelMatch::kMismatch
               ? w.node_delete
               : 0.0;
  };
  auto edge_cost = [&](size_t pi, size_t qj) {
    return cmp.Compare(p.edge_labels[pi], q.edge_labels[qj]) ==
                   LabelMatch::kMismatch
               ? w.edge_delete
               : 0.0;
  };

  // dp[i][j]: optimal cost aligning the last i pairs of p with the last
  // j pairs of q (pair i counts from the sink side).
  std::vector<std::vector<double>> dp(np + 1,
                                      std::vector<double>(nq + 1, 0.0));
  std::vector<std::vector<DpOp>> back(np + 1,
                                      std::vector<DpOp>(nq + 1,
                                                        DpOp::kMatch));
  for (size_t i = 1; i <= np; ++i) {
    dp[i][0] = static_cast<double>(i) * insert_cost;
    back[i][0] = DpOp::kInsert;
  }
  for (size_t j = 1; j <= nq; ++j) {
    dp[0][j] = static_cast<double>(j) * delete_cost;
    back[0][j] = DpOp::kDelete;
  }
  for (size_t i = 1; i <= np; ++i) {
    for (size_t j = 1; j <= nq; ++j) {
      size_t pi = np - i;  // Pair index from the source side.
      size_t qj = nq - j;
      double match = dp[i - 1][j - 1] + edge_cost(pi, qj) +
                     node_cost(pi, qj);
      double insert = dp[i - 1][j] + insert_cost;
      double erase = dp[i][j - 1] + delete_cost;
      dp[i][j] = match;
      back[i][j] = DpOp::kMatch;
      if (insert < dp[i][j]) {
        dp[i][j] = insert;
        back[i][j] = DpOp::kInsert;
      }
      if (erase < dp[i][j]) {
        dp[i][j] = erase;
        back[i][j] = DpOp::kDelete;
      }
    }
  }

  // Replay the optimal alignment sink-first through the same matching
  // helpers as the greedy scanner, so φ/τ/counters and conflict costs
  // come out identically structured.
  Aligner replay(p, q, cmp, params,
                 std::numeric_limits<double>::infinity());
  replay.MatchNodeForReplay(p.node_labels[np], q.node_labels[nq]);
  size_t i = np, j = nq;
  while (i > 0 || j > 0) {
    DpOp op = back[i][j];
    if (i == 0) op = DpOp::kDelete;
    if (j == 0) op = DpOp::kInsert;
    switch (op) {
      case DpOp::kMatch:
        replay.MatchPairForReplay(i, j);
        --i;
        --j;
        break;
      case DpOp::kInsert:
        replay.InsertPairForReplay();
        --i;
        break;
      case DpOp::kDelete:
        replay.DeletePairForReplay();
        --j;
        break;
    }
  }
  return replay.Finish();
}

PathAlignment Align(const Path& p, const Path& q,
                    const LabelComparator& cmp, const ScoreParams& params,
                    double lambda_cutoff) {
  if (params.alignment_mode == AlignmentMode::kOptimalDp) {
    return AlignPathsOptimal(p, q, cmp, params);
  }
  return AlignPaths(p, q, cmp, params, lambda_cutoff);
}

AlignmentMemo::AlignmentMemo(size_t capacity, size_t shards)
    : cache_(capacity, shards) {}

void AlignmentMemo::Clear() { cache_.Clear(); }

CacheCounters AlignmentMemo::counters() const { return cache_.counters(); }

namespace {

void AppendRaw(std::string* key, const void* data, size_t n) {
  key->append(static_cast<const char*>(data), n);
}

void AppendU64(std::string* key, uint64_t v) { AppendRaw(key, &v, sizeof(v)); }

void AppendF64(std::string* key, double v) { AppendRaw(key, &v, sizeof(v)); }

}  // namespace

AlignmentMemo::QueryKey AlignmentMemo::MakeQueryKey(const Path& q,
                                                    const LabelComparator& cmp,
                                                    const ScoreParams& params) {
  // Fixed-width binary encoding — unambiguous by construction (every
  // field is fixed size or length-prefixed), so two distinct
  // computations can never share a key. The trailing 8 bytes are the
  // data path id slot AlignCached fills per lookup.
  QueryKey qk;
  std::string& key = qk.bytes_;
  key.reserve(64 + 4 * (q.node_labels.size() + q.edge_labels.size()));
  key.push_back(static_cast<char>(params.alignment_mode));
  AppendF64(&key, params.weights.node_delete);
  AppendF64(&key, params.weights.node_insert);
  AppendF64(&key, params.weights.edge_delete);
  AppendF64(&key, params.weights.edge_insert);
  const Thesaurus* thesaurus = cmp.thesaurus();
  AppendU64(&key, thesaurus == nullptr ? 0 : thesaurus->identity());
  AppendU64(&key, q.node_labels.size());
  for (TermId id : q.node_labels) AppendRaw(&key, &id, sizeof(id));
  for (TermId id : q.edge_labels) AppendRaw(&key, &id, sizeof(id));
  AppendU64(&key, 0);
  return qk;
}

std::shared_ptr<const PathAlignment> AlignmentMemo::AlignCached(
    QueryKey* query_key, uint64_t data_path_id, const Path& p, const Path& q,
    const LabelComparator& cmp, const ScoreParams& params,
    double lambda_cutoff, CacheCounters* stats) {
  std::string& key = query_key->bytes_;
  std::memcpy(&key[key.size() - sizeof(data_path_id)], &data_path_id,
              sizeof(data_path_id));
  std::shared_ptr<const PathAlignment> entry;
  // A full entry answers any cutoff: it is served as stored, and a λ
  // at or past the cutoff reads as aborted to the caller, as the
  // direct greedy scan would report. (The DP ignores the cutoff and
  // never aborts.) An aborted entry's partial λ already reached the
  // cutoff it ran under, so any cutoff ≤ that partial λ would abort
  // too; a looser cutoff might let the scan complete — recompute under
  // it and overwrite with the more informative result.
  if (cache_.Get(key, &entry, stats) &&
      (!entry->aborted || lambda_cutoff <= entry->lambda)) {
    return entry;
  }
  entry = std::make_shared<const PathAlignment>(
      Align(p, q, cmp, params, lambda_cutoff));
  cache_.Put(key, entry, stats);
  return entry;
}

}  // namespace sama
