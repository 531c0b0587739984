#include "core/forest_search.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/score.h"

namespace sama {

std::vector<Triple> Answer::ToTriples(const TermDictionary& dict) const {
  std::vector<Triple> out;
  for (const ScoredPath& part : parts) {
    const Path& p = *part.path;
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

// One join position's candidates as flat node-id sets: candidate i's
// nodes, sorted and deduplicated, are ids[off[i], off[i + 1]).
struct NodeSets {
  std::vector<size_t> off{0};
  std::vector<NodeId> ids;
  size_t max_size = 0;  // Largest set: bounds χ against this position.

  explicit NodeSets(const std::vector<ScoredPath>& paths) {
    size_t total = 0;
    for (const ScoredPath& sp : paths) total += sp.path->nodes.size();
    ids.reserve(total);
    off.reserve(paths.size() + 1);
    for (const ScoredPath& sp : paths) {
      const size_t from = ids.size();
      ids.insert(ids.end(), sp.path->nodes.begin(), sp.path->nodes.end());
      std::sort(ids.begin() + from, ids.end());
      ids.erase(std::unique(ids.begin() + from, ids.end()), ids.end());
      off.push_back(ids.size());
      max_size = std::max(max_size, ids.size() - from);
    }
  }
  NodeSets() = default;

  size_t count() const { return off.size() - 1; }
};

// A position's node-set entries ordered by node: by_node[t] packs
// (node << 32 | entry), where entry indexes NodeSets::ids, and owner[t]
// is the candidate holding that entry. Each node's group is in
// candidate (λ) order.
struct NodePostings {
  std::vector<uint64_t> by_node;
  std::vector<uint32_t> owner;

  explicit NodePostings(const NodeSets& sets) {
    std::vector<uint32_t> owner_of_entry(sets.ids.size());
    for (size_t i = 0; i < sets.count(); ++i) {
      std::fill(owner_of_entry.begin() + sets.off[i],
                owner_of_entry.begin() + sets.off[i + 1],
                static_cast<uint32_t>(i));
    }
    by_node.reserve(sets.ids.size());
    for (size_t k = 0; k < sets.ids.size(); ++k) {
      by_node.push_back(uint64_t{sets.ids[k]} << 32 | k);
    }
    std::sort(by_node.begin(), by_node.end());
    owner.reserve(by_node.size());
    for (uint64_t p : by_node) owner.push_back(owner_of_entry[Low(p)]);
  }
  NodePostings() = default;

  static NodeId Node(uint64_t p) { return static_cast<NodeId>(p >> 32); }
  static uint32_t Low(uint64_t p) { return static_cast<uint32_t>(p); }
};

// |χ(p_i, p_j)|: the nodes two candidates share, by a linear merge.
size_t SharedNodes(const NodeSets& a, size_t i, const NodeSets& b,
                   size_t j) {
  const NodeId* x = a.ids.data() + a.off[i];
  const NodeId* const x_end = a.ids.data() + a.off[i + 1];
  const NodeId* y = b.ids.data() + b.off[j];
  const NodeId* const y_end = b.ids.data() + b.off[j + 1];
  size_t common = 0;
  while (x != x_end && y != y_end) {  // Branch-free: sets are short.
    const NodeId u = *x;
    const NodeId v = *y;
    common += u == v;
    x += u <= v;
    y += v <= u;
  }
  return common;
}

// A row's shared-node count that stands for itself or any larger one.
constexpr uint8_t kChiSaturated = std::numeric_limits<uint8_t>::max();

// An intersection-query-graph edge translated to join positions; it
// "completes" at its later position.
struct JoinEdge {
  size_t earlier;
  size_t chi_q;
  // psi[χ] = PsiCost(chi_q, χ) for every χ the two positions can reach.
  std::vector<double> psi;
  // Connectivity rows (built only under require_connected): row i,
  // row_ids[row_off[i], row_off[i + 1]), lists ascending the later
  // position's candidates that share a node with candidate i at
  // `earlier`, and row_chi the number of nodes each pair shares
  // (kChiSaturated: that many or more, count them). Their total size
  // is the number of connected pairs.
  std::vector<size_t> row_off;
  std::vector<uint32_t> row_ids;
  std::vector<uint8_t> row_chi;
  size_t max_row = 0;

  // A sort-merge of both positions' node postings finds, for every node
  // entry of the later position, the earlier position's candidates
  // holding the same node. Walking the later candidates in ascending
  // order then visits each connected pair once per shared node, in row
  // order, so a row is deduplicated against its last entry and comes
  // out ascending; the repeat visits count the pair's shared nodes. One
  // walk sizes the rows exactly, a second fills them.
  void BuildRows(const NodePostings& a, size_t a_count, const NodeSets& b_sets,
                 const NodePostings& b) {
    // Per entry of b's node sets, the range of a's postings on its node.
    std::vector<uint32_t> from(b_sets.ids.size(), 0);
    std::vector<uint32_t> to(b_sets.ids.size(), 0);
    size_t x = 0, y = 0;
    while (x < a.by_node.size() && y < b.by_node.size()) {
      const NodeId nx = NodePostings::Node(a.by_node[x]);
      const NodeId ny = NodePostings::Node(b.by_node[y]);
      if (nx < ny) {
        ++x;
      } else if (ny < nx) {
        ++y;
      } else {
        size_t x_end = x + 1;
        while (x_end < a.by_node.size() &&
               NodePostings::Node(a.by_node[x_end]) == nx) {
          ++x_end;
        }
        for (; y < b.by_node.size() && NodePostings::Node(b.by_node[y]) == nx;
             ++y) {
          const uint32_t entry = NodePostings::Low(b.by_node[y]);
          from[entry] = static_cast<uint32_t>(x);
          to[entry] = static_cast<uint32_t>(x_end);
        }
        x = x_end;
      }
    }
    std::vector<uint32_t> last(a_count);
    auto walk = [&](auto&& first_visit, auto&& repeat_visit) {
      std::fill(last.begin(), last.end(), std::numeric_limits<uint32_t>::max());
      for (uint32_t j = 0; j < b_sets.count(); ++j) {
        for (size_t entry = b_sets.off[j]; entry < b_sets.off[j + 1];
             ++entry) {
          for (uint32_t t = from[entry]; t < to[entry]; ++t) {
            const uint32_t i = a.owner[t];
            if (last[i] == j) {
              repeat_visit(i);
            } else {
              last[i] = j;
              first_visit(i, j);
            }
          }
        }
      }
    };
    row_off.assign(a_count + 1, 0);
    walk([&](uint32_t i, uint32_t) { ++row_off[i + 1]; }, [](uint32_t) {});
    for (size_t i = 0; i < a_count; ++i) {
      max_row = std::max(max_row, row_off[i + 1]);
      row_off[i + 1] += row_off[i];
    }
    row_ids.resize(row_off[a_count]);
    row_chi.resize(row_off[a_count]);
    std::vector<size_t> fill(row_off.begin(), row_off.end() - 1);
    walk(
        [&](uint32_t i, uint32_t j) {
          row_ids[fill[i]] = j;
          row_chi[fill[i]++] = 1;
        },
        [&](uint32_t i) {
          uint8_t& chi = row_chi[fill[i] - 1];
          if (chi != kChiSaturated) ++chi;
        });
  }
};

// A kept answer's rank, for dedup: its tuple's representative.
struct Kept {
  double score;
  std::vector<uint32_t> enum_key;
};

// The canonical answer order: score, then enumeration key.
bool RanksBefore(double score_a, const std::vector<uint32_t>& key_a,
                 double score_b, const std::vector<uint32_t>& key_b) {
  if (score_a != score_b) return score_a < score_b;
  return key_a < key_b;
}

// One back edge's row for the placed anchor: ids[0, size) and their χ.
struct RowRef {
  const uint32_t* ids;
  const uint8_t* chi;
  size_t size;
  size_t edge;  // Index into the position's edges_completing_at.
};

constexpr size_t kCacheLine = 64;

// Reserves `n` elements plus a cache line of spare capacity behind them,
// so whatever is allocated next never shares their last line.
template <typename T>
void ReservePadded(std::vector<T>* v, size_t n) {
  v->reserve(n + kCacheLine / sizeof(T) + 1);
}

// A position's candidates that share a node with every placed anchor,
// ascending (i.e. λ-ordered), with each one's χ per back edge:
// chi[k * stride + e] for candidate k and back edge e.
struct Narrowed {
  const uint32_t* ids;
  const uint8_t* chi;
  size_t stride;
  size_t count;
};

// Intersects the anchors' rows, one per back edge of a position. One
// edge's row is the answer as it stands; otherwise the two shortest
// rows are merged into `both` and `both_chi`, which must have room for
// the smallest of the edges' longest rows. That usually leaves a
// handful of candidates, which each further row is only searched for.
Narrowed Narrow(const std::vector<JoinEdge>& back_edges,
                const std::vector<uint32_t>& choice,
                std::vector<RowRef>* scratch, std::vector<uint32_t>* both,
                uint8_t* both_chi) {
  std::vector<RowRef>& rows = *scratch;
  rows.clear();
  for (size_t e = 0; e < back_edges.size(); ++e) {
    const JoinEdge& edge = back_edges[e];
    const size_t i = choice[edge.earlier];
    const size_t from = edge.row_off[i];
    rows.push_back({edge.row_ids.data() + from, edge.row_chi.data() + from,
                    edge.row_off[i + 1] - from, e});
  }
  if (rows.size() == 1) return {rows[0].ids, rows[0].chi, 1, rows[0].size};
  auto shorter = [](const RowRef& x, const RowRef& y) {
    return x.size < y.size;
  };
  if (shorter(rows[1], rows[0])) std::swap(rows[0], rows[1]);
  for (size_t e = 2; e < rows.size(); ++e) {
    if (shorter(rows[e], rows[1])) {
      std::swap(rows[e], rows[1]);
      if (shorter(rows[1], rows[0])) std::swap(rows[0], rows[1]);
    }
  }
  const size_t stride = rows.size();
  both->clear();
  for (size_t x = 0, y = 0; x < rows[0].size && y < rows[1].size;) {
    if (rows[0].ids[x] < rows[1].ids[y]) {
      ++x;
    } else if (rows[1].ids[y] < rows[0].ids[x]) {
      ++y;
    } else {
      uint8_t* record = both_chi + both->size() * stride;
      record[rows[0].edge] = rows[0].chi[x];
      record[rows[1].edge] = rows[1].chi[y];
      both->push_back(rows[0].ids[x]);
      ++x;
      ++y;
    }
  }
  for (size_t e = 2; e < rows.size() && !both->empty(); ++e) {
    const RowRef& row = rows[e];
    const uint32_t* at = row.ids;
    const uint32_t* const end = row.ids + row.size;
    size_t w = 0;
    for (size_t r = 0; r < both->size(); ++r) {
      const uint32_t id = (*both)[r];
      at = std::lower_bound(at, end, id);
      if (at == end) break;
      if (*at != id) continue;
      if (w != r) {
        (*both)[w] = id;
        std::copy_n(both_chi + r * stride, stride, both_chi + w * stride);
      }
      both_chi[w * stride + row.edge] = row.chi[at - row.ids];
      ++w;
    }
    both->resize(w);
  }
  return {both->data(), both_chi, stride, both->size()};
}

// The mutable state of one subtree search. There is one per wave slot,
// allocated once per search and reused by every subtree that runs in
// the slot, across waves and retry rounds. Slots run on different
// threads, so the struct and its buffers are padded to whole cache
// lines: no two slots write the same line.
struct alignas(kCacheLine) SubtreeArena {
  std::vector<uint32_t> choice;
  std::vector<double> psi_prefix;  // ψ of the edges inside the prefix.
  std::vector<double> lambda_prefix;
  // Per depth, when a position completes more than one edge: the
  // candidates left after intersecting the back edges' rows, and for
  // each of them one χ per back edge, in edges_completing_at order.
  std::vector<std::vector<uint32_t>> narrowed;
  std::vector<std::vector<uint8_t>> narrowed_chi;
  std::vector<RowRef> rows;  // Narrowing scratch: one row per back edge.
  // Per dedup tuple key, the rank of the subtree's kept answer.
  std::unordered_map<std::string, Kept> best_by_tuple;
  // Leaf scratch: the tuple key and the φ merge order.
  std::string tuple;
  std::vector<size_t> by_lambda;
};

// Heap bytes of a vector's buffer.
template <typename T>
size_t BufferBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

// Every field is written by BuildSearchTables and read-only afterwards.
struct SearchTables {
  bool require_connected = true;
  // Per cluster, in cluster order, its query path; and the active
  // (non-empty) clusters as indexes into the clusters, with their query
  // paths. The search reads each answer's parts from these clusters.
  std::vector<size_t> cluster_query_path;
  std::vector<size_t> active_cluster;
  std::vector<size_t> active_query_path;
  // The empty clusters' deletion penalty, the Ψ of IG edges touching
  // them (the answer pair shares nothing, costing e·|χ(qi,qj)|), and
  // their sum.
  double empty_penalty = 0;
  double empty_psi = 0;
  double fixed_cost = 0;
  // The join order over the active clusters (see JoinOrder), and each
  // active cluster's join position.
  std::vector<size_t> order;
  std::vector<size_t> position_of;
  // Per join position: the candidates' path ids (for SearchTablesMatch)
  // and λ, and, at positions an edge touches, their node sets.
  std::vector<std::vector<PathId>> ids;
  std::vector<std::vector<double>> lambdas;
  std::vector<NodeSets> nodes;
  // IG edges translated to join positions, in ig.edges() order per
  // completing position (the order ψ is summed in).
  std::vector<std::vector<JoinEdge>> edges_completing_at;
  // Admissible remainders: ψ lower bounds of the edges completing at a
  // position and from it on, and Σ of each unplaced cluster's best λ.
  std::vector<double> psi_lb_at;
  std::vector<double> psi_lb_suffix;
  std::vector<double> min_lambda_suffix;

  size_t HeapBytes() const {
    size_t total = sizeof(SearchTables) + BufferBytes(cluster_query_path) +
                   BufferBytes(active_cluster) +
                   BufferBytes(active_query_path) + BufferBytes(order) +
                   BufferBytes(position_of) + BufferBytes(ids) +
                   BufferBytes(lambdas) + BufferBytes(nodes) +
                   BufferBytes(edges_completing_at) + BufferBytes(psi_lb_at) +
                   BufferBytes(psi_lb_suffix) +
                   BufferBytes(min_lambda_suffix);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      total += BufferBytes(ids[pos]) + BufferBytes(lambdas[pos]) +
               BufferBytes(nodes[pos].off) + BufferBytes(nodes[pos].ids) +
               BufferBytes(edges_completing_at[pos]);
      for (const JoinEdge& edge : edges_completing_at[pos]) {
        total += BufferBytes(edge.psi) + BufferBytes(edge.row_off) +
                 BufferBytes(edge.row_ids) + BufferBytes(edge.row_chi);
      }
    }
    return total;
  }
};

Result<std::shared_ptr<const SearchTables>> BuildSearchTables(
    const QueryGraph& query, const IntersectionQueryGraph& ig,
    const std::vector<Cluster>& clusters, const ScoreParams& params,
    bool require_connected, ThreadPool* pool,
    std::atomic<uint64_t>* busy_nanos) {
  auto tables = std::make_shared<SearchTables>();
  SearchTables& t = *tables;
  t.require_connected = require_connected;
  // Split clusters into the active (non-empty) ones we combine over and
  // the empty ones we charge a deletion penalty for.
  std::vector<const Cluster*> active;
  std::vector<size_t> empty_query_paths;
  t.cluster_query_path.reserve(clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    const Cluster& cluster = clusters[c];
    t.cluster_query_path.push_back(cluster.query_path_index);
    if (!cluster.empty()) {
      if (cluster.size() > std::numeric_limits<uint32_t>::max()) {
        return Status::OutOfRange("cluster too large for forest search");
      }
      active.push_back(&cluster);
      t.active_cluster.push_back(c);
      t.active_query_path.push_back(cluster.query_path_index);
      continue;
    }
    const Path& q = query.paths()[cluster.query_path_index];
    t.empty_penalty +=
        params.a() * static_cast<double>(q.node_labels.size()) +
        params.c() * static_cast<double>(q.edge_labels.size());
    empty_query_paths.push_back(cluster.query_path_index);
  }
  if (active.empty()) {
    return std::shared_ptr<const SearchTables>(std::move(tables));
  }

  for (const IntersectionQueryGraph::SharedEdge& edge : ig.edges()) {
    bool i_empty =
        std::find(empty_query_paths.begin(), empty_query_paths.end(),
                  edge.qi) != empty_query_paths.end();
    bool j_empty =
        std::find(empty_query_paths.begin(), empty_query_paths.end(),
                  edge.qj) != empty_query_paths.end();
    if (i_empty || j_empty) {
      t.empty_psi += PsiCost(edge.shared.size(), 0, params);
    }
  }
  t.fixed_cost = t.empty_penalty + t.empty_psi;

  const size_t m = active.size();
  t.order = JoinOrder(ig, active);
  const std::vector<size_t>& order = t.order;

  // Candidate λ and path id per join position, flat, and the longest
  // candidate path per join position — it bounds the achievable
  // χ(pi, pj), hence the minimum ψ of a pending edge.
  t.lambdas.resize(m);
  t.ids.resize(m);
  std::vector<size_t> max_len(m, 1);
  for (size_t pos = 0; pos < m; ++pos) {
    const std::vector<ScoredPath>& paths = active[order[pos]]->paths;
    t.lambdas[pos].reserve(paths.size());
    t.ids[pos].reserve(paths.size());
    for (const ScoredPath& sp : paths) {
      t.lambdas[pos].push_back(sp.lambda());
      t.ids[pos].push_back(sp.id);
      max_len[pos] = std::max(max_len[pos], sp.path->length());
    }
  }

  t.edges_completing_at.resize(m);
  t.psi_lb_suffix.assign(m + 1, 0.0);
  t.psi_lb_at.assign(m, 0.0);
  std::vector<uint8_t> on_edge(m, 0);
  {
    // Map query-path index -> join position.
    std::vector<size_t> position_of_query_path(query.paths().size(), m);
    for (size_t pos = 0; pos < m; ++pos) {
      position_of_query_path[t.active_query_path[order[pos]]] = pos;
    }
    std::vector<double>& lb_at = t.psi_lb_at;
    for (const IntersectionQueryGraph::SharedEdge& edge : ig.edges()) {
      size_t a = position_of_query_path[edge.qi];
      size_t b = position_of_query_path[edge.qj];
      if (a >= m || b >= m) continue;  // Touches an empty cluster.
      if (a > b) std::swap(a, b);
      JoinEdge join;
      join.earlier = a;
      join.chi_q = edge.shared.size();
      t.edges_completing_at[b].push_back(std::move(join));
      on_edge[a] = on_edge[b] = 1;
      size_t max_chi = std::min(max_len[a], max_len[b]);
      lb_at[b] += params.e * static_cast<double>(edge.shared.size()) /
                  static_cast<double>(max_chi);
    }
    for (size_t pos = m; pos-- > 0;) {
      t.psi_lb_suffix[pos] = t.psi_lb_suffix[pos + 1] + lb_at[pos];
    }
  }

  // Node sets of every position an edge touches (χ reads them), and,
  // when connectivity is required, their node-sorted postings, which
  // the rows are merged from. One task per position.
  std::vector<NodeSets>& nodes = t.nodes;
  nodes.resize(m);
  std::vector<NodePostings> postings(m);
  SAMA_RETURN_IF_ERROR(ParallelFor(
      pool, m,
      [&](size_t pos) -> Status {
        if (on_edge[pos] == 0) return Status::Ok();
        nodes[pos] = NodeSets(active[order[pos]]->paths);
        if (nodes[pos].ids.size() > std::numeric_limits<uint32_t>::max()) {
          return Status::OutOfRange("cluster too large for forest search");
        }
        if (require_connected) postings[pos] = NodePostings(nodes[pos]);
        return Status::Ok();
      },
      busy_nanos));
  // One task per edge: its ψ table and its rows. Each task writes only
  // its own edge, so the tables are the same at every thread count.
  std::vector<std::pair<JoinEdge*, size_t>> all_edges;  // (edge, later).
  for (size_t b = 0; b < m; ++b) {
    for (JoinEdge& edge : t.edges_completing_at[b]) {
      all_edges.emplace_back(&edge, b);
    }
  }
  SAMA_RETURN_IF_ERROR(ParallelFor(
      pool, all_edges.size(),
      [&](size_t e) -> Status {
        auto [edge_ptr, b] = all_edges[e];
        JoinEdge& edge = *edge_ptr;
        const size_t reach =
            std::min(nodes[edge.earlier].max_size, nodes[b].max_size);
        edge.psi.resize(reach + 1);
        for (size_t chi = 0; chi <= reach; ++chi) {
          edge.psi[chi] = PsiCost(edge.chi_q, chi, params);
        }
        if (require_connected) {
          edge.BuildRows(postings[edge.earlier], nodes[edge.earlier].count(),
                         nodes[b], postings[b]);
        }
        return Status::Ok();
      },
      busy_nanos));

  t.min_lambda_suffix.assign(m + 1, 0.0);
  for (size_t pos = m; pos-- > 0;) {
    t.min_lambda_suffix[pos] =
        t.min_lambda_suffix[pos + 1] + t.lambdas[pos][0];
  }

  // Join position of each active cluster, for leaves that walk the
  // parts in cluster order.
  t.position_of.resize(m);
  for (size_t pos = 0; pos < m; ++pos) t.position_of[order[pos]] = pos;
  return std::shared_ptr<const SearchTables>(std::move(tables));
}

bool SearchTablesMatch(const SearchTables& tables,
                       const std::vector<Cluster>& clusters) {
  if (clusters.size() != tables.cluster_query_path.size()) return false;
  size_t a = 0;  // Next active cluster.
  for (size_t c = 0; c < clusters.size(); ++c) {
    const Cluster& cluster = clusters[c];
    if (cluster.query_path_index != tables.cluster_query_path[c]) return false;
    const bool active =
        a < tables.active_cluster.size() && tables.active_cluster[a] == c;
    if (cluster.empty() == active) return false;
    if (!active) continue;
    const size_t pos = tables.position_of[a++];
    const std::vector<PathId>& ids = tables.ids[pos];
    const std::vector<double>& lambdas = tables.lambdas[pos];
    if (cluster.size() != ids.size()) return false;
    for (size_t i = 0; i < ids.size(); ++i) {
      const ScoredPath& sp = cluster.paths[i];
      // λ bit for bit: the bounds and scores are sums of these values.
      if (sp.id != ids[i] || std::bit_cast<uint64_t>(sp.lambda()) !=
                                 std::bit_cast<uint64_t>(lambdas[i])) {
        return false;
      }
    }
  }
  return true;
}

size_t SearchTablesBytes(const SearchTables& tables) {
  return tables.HeapBytes();
}

Result<std::vector<Answer>> SearchForest(const SearchTables& tables,
                                         const std::vector<Cluster>& clusters,
                                         const ScoreParams& params,
                                         const ForestSearchOptions& options,
                                         ThreadPool* pool,
                                         std::atomic<uint64_t>* busy_nanos,
                                         ForestSearchStats* fstats) {
  if (fstats != nullptr) *fstats = ForestSearchStats{};
  if (options.require_connected != tables.require_connected) {
    return Status::InvalidArgument(
        "search tables were built with another require_connected");
  }
  if (clusters.size() != tables.cluster_query_path.size()) {
    return Status::InvalidArgument("clusters do not match the search tables");
  }
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
  const bool dedup = !options.dedup_vars.empty();
  const size_t m = tables.order.size();
  if (m == 0) return std::vector<Answer>{};

  // ---- The shared read-only tables. Nothing below mutates them, so
  // every subtree reads them without locking.
  const std::vector<size_t>& order = tables.order;
  const std::vector<size_t>& position_of = tables.position_of;
  const std::vector<size_t>& active_query_path = tables.active_query_path;
  const std::vector<std::vector<double>>& lambdas = tables.lambdas;
  const std::vector<NodeSets>& nodes = tables.nodes;
  const std::vector<std::vector<JoinEdge>>& edges_completing_at =
      tables.edges_completing_at;
  const std::vector<double>& psi_lb_at = tables.psi_lb_at;
  const std::vector<double>& psi_lb_suffix = tables.psi_lb_suffix;
  const std::vector<double>& min_lambda_suffix = tables.min_lambda_suffix;
  const double empty_penalty = tables.empty_penalty;
  const double empty_psi = tables.empty_psi;
  const double fixed_cost = tables.fixed_cost;

  // Each join position's candidates, in the caller's clusters.
  std::vector<const ScoredPath*> paths_at(m);
  for (size_t pos = 0; pos < m; ++pos) {
    const Cluster& cluster = clusters[tables.active_cluster[order[pos]]];
    if (cluster.size() != lambdas[pos].size()) {
      return Status::InvalidArgument("clusters do not match the search tables");
    }
    paths_at[pos] = cluster.paths.data();
  }
  auto candidate = [&](size_t pos, size_t idx) -> const ScoredPath& {
    return paths_at[pos][idx];
  };

  const std::string unbound = Term::Literal("").ToString();
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
  // (score, enum_key) among everything ever inserted". `best_by_tuple`
  // holds, per tuple key, the rank of the one answer of that tuple in
  // the list; enumeration keys are unique, so that rank finds it by
  // binary search. `key` is the answer's tuple key when dedup is on.
  auto rank_before = [](const Answer& a, const Answer& b) {
    return RanksBefore(a.score, a.enum_key, b.score, b.enum_key);
  };
  auto keep_one = [&](Answer&& answer, const std::string& key,
                      std::vector<Answer>* into,
                      std::unordered_map<std::string, Kept>* best_by_tuple) {
    if (dedup) {
      auto [it, inserted] = best_by_tuple->try_emplace(key);
      if (!inserted) {
        Kept& kept = it->second;
        // On a score tie the canonically earlier enumeration wins, so
        // the dedup representative is schedule-independent too.
        if (!RanksBefore(answer.score, answer.enum_key, kept.score,
                         kept.enum_key)) {
          return;
        }
        auto r = std::lower_bound(
            into->begin(), into->end(), kept,
            [](const Answer& a, const Kept& b) {
              return RanksBefore(a.score, a.enum_key, b.score, b.enum_key);
            });
        if (r != into->end() && r->score == kept.score &&
            r->enum_key == kept.enum_key) {
          into->erase(r);
        }
      }
      it->second.score = answer.score;
      it->second.enum_key = answer.enum_key;
    }
    auto at = std::upper_bound(into->begin(), into->end(), answer,
                               rank_before);
    into->insert(at, std::move(answer));
    if (options.k != 0 && into->size() > options.k) {
      if (dedup) best_by_tuple->erase(tuple_key(into->back()));
      into->pop_back();
    }
  };
  auto keep = [&](std::vector<Answer>&& batch, std::vector<Answer>* into,
                  std::unordered_map<std::string, Kept>* best_by_tuple) {
    std::string key;
    for (Answer& answer : batch) {
      if (dedup) key = tuple_key(answer);
      keep_one(std::move(answer), key, into, best_by_tuple);
    }
  };

  // One arena per wave slot. A position's narrowing buffers never hold
  // more candidates than the smallest of its back edges' longest rows.
  const size_t num_subtrees = lambdas[0].size();
  std::vector<SubtreeArena> arenas(
      m == 1 ? 1 : std::min(kWaveSize, num_subtrees));
  for (SubtreeArena& ar : arenas) {
    ReservePadded(&ar.choice, m);
    ar.choice.assign(m, 0);
    ReservePadded(&ar.psi_prefix, m + 1);
    ar.psi_prefix.assign(m + 1, 0.0);
    ReservePadded(&ar.lambda_prefix, m + 1);
    ar.lambda_prefix.assign(m + 1, 0.0);
    ReservePadded(&ar.narrowed, m);
    ar.narrowed.resize(m);
    ReservePadded(&ar.narrowed_chi, m);
    ar.narrowed_chi.resize(m);
    for (size_t pos = 0; pos < m; ++pos) {
      const std::vector<JoinEdge>& back_edges = edges_completing_at[pos];
      if (options.require_connected && back_edges.size() > 1) {
        size_t cap = back_edges[0].max_row;
        for (const JoinEdge& edge : back_edges) {
          cap = std::min(cap, edge.max_row);
        }
        ReservePadded(&ar.narrowed[pos], cap);
        ReservePadded(&ar.narrowed_chi[pos], cap * back_edges.size());
        ar.narrowed_chi[pos].resize(cap * back_edges.size());
      }
    }
    ReservePadded(&ar.rows, m);
    ReservePadded(&ar.by_lambda, m);
  }

  // A completed combination, scored with the same expression as ever.
  // The full Answer (parts, φ merge, FILTER, consistency) is built
  // only when `keep` would insert it; the two early returns discard
  // exactly what `keep` would discard:
  //  1. the list already holds k answers and this one ranks after the
  //     last — keep would insert it at the end and pop it again;
  //  2. its dedup tuple already has a kept answer that ranks before it
  //     — keep would skip it.
  auto leaf = [&](SubtreeArena& ar, std::vector<Answer>* out) {
    const double lambda_total = empty_penalty + ar.lambda_prefix[m];
    const double psi_total = empty_psi + ar.psi_prefix[m];
    const double score = lambda_total + psi_total;
    if (options.k != 0 && out->size() >= options.k &&
        !RanksBefore(score, ar.choice, out->back().score,
                     out->back().enum_key)) {
      return;
    }
    // The parts (by cluster) in stable λ order: the order φ is merged
    // in, so the better-aligned path's binding wins a conflict.
    auto part_lambda = [&](size_t c) {
      return lambdas[position_of[c]][ar.choice[position_of[c]]];
    };
    ar.by_lambda.clear();
    for (size_t c = 0; c < m; ++c) {
      auto at = ar.by_lambda.end();
      while (at != ar.by_lambda.begin() &&
             part_lambda(c) < part_lambda(*(at - 1))) {
        --at;
      }
      ar.by_lambda.insert(at, c);
    }
    if (dedup) {
      // The tuple Answer::binding gives: each variable's first binding
      // over the parts' φ in that order.
      ar.tuple.clear();
      for (const std::string& var : options.dedup_vars) {
        const Term* bound = nullptr;
        for (size_t c : ar.by_lambda) {
          const size_t pos = position_of[c];
          bound = candidate(pos, ar.choice[pos]).alignment->phi.Lookup(var);
          if (bound != nullptr) break;
        }
        ar.tuple += bound != nullptr ? bound->ToString() : unbound;
        ar.tuple += '\x1f';
      }
      auto it = ar.best_by_tuple.find(ar.tuple);
      if (it != ar.best_by_tuple.end() &&
          RanksBefore(it->second.score, it->second.enum_key, score,
                      ar.choice)) {
        return;
      }
    }
    Answer answer;
    answer.lambda_total = lambda_total;
    answer.psi_total = psi_total;
    answer.score = score;
    answer.parts.resize(m);
    answer.query_path_index.resize(m);
    for (size_t pos = 0; pos < m; ++pos) {
      // Restore the original cluster order in the answer.
      answer.parts[order[pos]] = candidate(pos, ar.choice[pos]);
      answer.query_path_index[order[pos]] = active_query_path[order[pos]];
    }
    answer.enum_key = ar.choice;
    for (size_t c : ar.by_lambda) {
      if (!answer.binding.Merge(answer.parts[c].alignment->phi)) {
        answer.consistent = false;
      }
    }
    if (options.binding_filter && !options.binding_filter(answer.binding)) {
      return;
    }
    keep_one(std::move(answer), ar.tuple, out, &ar.best_by_tuple);
  };

  // ---- The subtree searcher: a depth-first branch and bound with
  // candidate `root` fixed at join position 0. It is a pure function of
  // (root, inherited threshold, budget share) over the immutable
  // tables above — the determinism contract hangs on that purity,
  // because it makes results independent of WHICH thread runs the
  // subtree, in WHICH arena, and WHEN. A prefix is pruned when its
  // admissible lower bound
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
  auto search_subtree = [&](SubtreeArena& ar, size_t root,
                            double inherited_threshold, size_t share,
                            std::vector<Answer>* out, size_t* pruned_out,
                            bool* truncated_out) {
    ar.best_by_tuple.clear();
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

    // Recursive lambda over join positions 1..m (position 0 is fixed).
    auto descend = [&](auto&& self, size_t pos) -> void {
      if (out_of_budget) return;
      if (pos == m) {
        leaf(ar, out);
        return;
      }
      const std::vector<JoinEdge>& back_edges = edges_completing_at[pos];
      // When this position must connect to already-placed paths, only
      // candidates sharing a node with EVERY one of them can be valid.
      Narrowed narrowed{nullptr, nullptr, 0, lambdas[pos].size()};
      if (options.require_connected && !back_edges.empty()) {
        narrowed = Narrow(back_edges, ar.choice, &ar.rows, &ar.narrowed[pos],
                          ar.narrowed_chi[pos].data());
      }
      const size_t candidate_count = narrowed.count;
      for (size_t pick = 0; pick < candidate_count; ++pick) {
        const uint32_t idx = narrowed.ids != nullptr
                                 ? narrowed.ids[pick]
                                 : static_cast<uint32_t>(pick);
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
        // λ-only bound: candidates are sorted by λ, so once it fails no
        // later candidate at this position can succeed either.
        double lambda_sum = ar.lambda_prefix[pos] + lambdas[pos][idx];
        double optimistic = fixed_cost + lambda_sum +
                            min_lambda_suffix[pos + 1] + ar.psi_prefix[pos] +
                            psi_lb_suffix[pos];
        if (prune && optimistic > threshold()) {
          pruned += candidate_count - pick;
          break;
        }

        // Exact ψ of the edges this position completes, plus validity.
        double psi_here = 0;
        bool valid = true;
        for (size_t e = 0; e < back_edges.size(); ++e) {
          const JoinEdge& edge = back_edges[e];
          size_t chi_p = narrowed.chi != nullptr
                             ? narrowed.chi[pick * narrowed.stride + e]
                             : kChiSaturated;
          if (chi_p == kChiSaturated) {
            chi_p = SharedNodes(nodes[edge.earlier], ar.choice[edge.earlier],
                                nodes[pos], idx);
          }
          if (chi_p == 0 && options.require_connected) {
            valid = false;
            break;
          }
          psi_here += edge.psi[chi_p];
        }
        if (!valid) continue;
        double full_bound = optimistic + psi_here - psi_lb_at[pos];
        if (prune && full_bound > threshold()) {
          ++pruned;
          continue;
        }

        ar.choice[pos] = idx;
        ar.lambda_prefix[pos + 1] = lambda_sum;
        ar.psi_prefix[pos + 1] = ar.psi_prefix[pos] + psi_here;
        self(self, pos + 1);
        if (out_of_budget) return;
      }
    };

    // Place the root (one expansion, like any other candidate) and
    // recurse over the remaining positions.
    ++used;
    ar.choice[0] = static_cast<uint32_t>(root);
    ar.lambda_prefix[1] = lambdas[0][root];
    ar.psi_prefix[1] = 0.0;  // No edge completes at position 0.
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
  std::unordered_map<std::string, Kept> best_by_tuple;
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
        double optimistic = fixed_cost + lambdas[0][runnable[next]] +
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
        wave_used[0] = search_subtree(arenas[0], wave[0], theta, wave_share,
                                      &wave_out[0], &wave_pruned[0], &t);
        wave_truncated[0] = t ? 1 : 0;
      } else {
        SAMA_RETURN_IF_ERROR(ParallelFor(
            pool, wave.size(),
            [&](size_t w) -> Status {
              bool t = false;
              wave_used[w] =
                  search_subtree(arenas[w], wave[w], theta, wave_share,
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

Result<std::vector<Answer>> ForestSearch(const QueryGraph& query,
                                         const IntersectionQueryGraph& ig,
                                         const std::vector<Cluster>& clusters,
                                         const ScoreParams& params,
                                         const ForestSearchOptions& options,
                                         ThreadPool* pool,
                                         std::atomic<uint64_t>* busy_nanos,
                                         ForestSearchStats* fstats) {
  if (fstats != nullptr) *fstats = ForestSearchStats{};
  auto tables = BuildSearchTables(query, ig, clusters, params,
                                  options.require_connected, pool, busy_nanos);
  if (!tables.ok()) return tables.status();
  return SearchForest(**tables, clusters, params, options, pool, busy_nanos,
                      fstats);
}

}  // namespace sama
