#ifndef SAMA_QUERY_TRANSFORMATION_H_
#define SAMA_QUERY_TRANSFORMATION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace sama {

// The basic update operations a transformation τ is made of
// (Definition 3): insertions, deletions and label modifications of
// nodes and edges.
enum class BasicOp : uint8_t {
  kNodeDelete = 0,  // ε‾N — weight a.
  kNodeInsert,      // ε↑N — weight b.
  kEdgeDelete,      // ε‾E — weight c.
  kEdgeInsert,      // ε↑E — weight d.
  kNodeRelabel,     // ε×N — weight 0 (Theorem 1 proof).
  kEdgeRelabel,     // ε×E — weight 0.
};

const char* BasicOpName(BasicOp op);

// The relevance-weight function ω (Definition 4 / Theorem 1 proof).
// Defaults are the setting used in the paper's experiments (§6.2):
// a=1, b=0.5, c=2, d=1; relabelings are free so an answer gathering
// more labels than Q is not penalised.
struct OpWeights {
  double node_delete = 1.0;   // a
  double node_insert = 0.5;   // b
  double edge_delete = 2.0;   // c
  double edge_insert = 1.0;   // d
  double node_relabel = 0.0;
  double edge_relabel = 0.0;

  double Of(BasicOp op) const {
    switch (op) {
      case BasicOp::kNodeDelete:
        return node_delete;
      case BasicOp::kNodeInsert:
        return node_insert;
      case BasicOp::kEdgeDelete:
        return edge_delete;
      case BasicOp::kEdgeInsert:
        return edge_insert;
      case BasicOp::kNodeRelabel:
        return node_relabel;
      case BasicOp::kEdgeRelabel:
        return edge_relabel;
    }
    return 0.0;
  }
};

// A substitution φ (Definition 3): maps variable names (without '?') to
// the constant terms they are bound to.
class Substitution {
 public:
  // Binds `var` to `value`. Returns false on a conflicting rebinding
  // (the existing binding wins).
  bool Bind(const std::string& var, const Term& value) {
    auto [it, inserted] = bindings_.emplace(var, value);
    return inserted || it->second == value;
  }

  const Term* Lookup(const std::string& var) const {
    auto it = bindings_.find(var);
    return it == bindings_.end() ? nullptr : &it->second;
  }

  size_t size() const { return bindings_.size(); }
  const std::unordered_map<std::string, Term>& bindings() const {
    return bindings_;
  }

  // Merges `other` into this substitution. Returns false when any
  // variable conflicted (the existing binding wins); all other
  // variables transfer regardless.
  bool Merge(const Substitution& other);

 private:
  std::unordered_map<std::string, Term> bindings_;
};

// A transformation τ: the recorded sequence of basic update operations
// that turned φ(Q) (or one of its paths) into an answer path.
class Transformation {
 public:
  void Add(BasicOp op) { ops_.push_back(op); }

  const std::vector<BasicOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

  // The cost γ(τ) (Definition 4): the ω-weighted sum of the operations.
  // The paper's formula carries an extra z· factor (z = |τ|); it cancels
  // in every relevance comparison and would break the γ(τ)=λ(p,q)
  // identity the Theorem-1 proof relies on, so the weighted sum is the
  // default and the factor is opt-in.
  double Cost(const OpWeights& w, bool multiply_by_length = false) const {
    double sum = 0;
    for (BasicOp op : ops_) sum += w.Of(op);
    return multiply_by_length ? static_cast<double>(ops_.size()) * sum : sum;
  }

  // Number of operations of each kind, for introspection/tests.
  size_t Count(BasicOp op) const;

 private:
  std::vector<BasicOp> ops_;
};

}  // namespace sama

#endif  // SAMA_QUERY_TRANSFORMATION_H_
