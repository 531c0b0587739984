#include "query/transformation.h"

#include <algorithm>

namespace sama {

const char* BasicOpName(BasicOp op) {
  switch (op) {
    case BasicOp::kNodeDelete:
      return "node-delete";
    case BasicOp::kNodeInsert:
      return "node-insert";
    case BasicOp::kEdgeDelete:
      return "edge-delete";
    case BasicOp::kEdgeInsert:
      return "edge-insert";
    case BasicOp::kNodeRelabel:
      return "node-relabel";
    case BasicOp::kEdgeRelabel:
      return "edge-relabel";
  }
  return "unknown";
}

bool Substitution::Merge(const Substitution& other) {
  bool consistent = true;
  for (const auto& [var, value] : other.bindings_) {
    // Keep merging past a conflict: the existing binding wins for the
    // conflicting variable, every other variable still transfers.
    if (!Bind(var, value)) consistent = false;
  }
  return consistent;
}

size_t Transformation::Count(BasicOp op) const {
  return static_cast<size_t>(std::count(ops_.begin(), ops_.end(), op));
}

}  // namespace sama
