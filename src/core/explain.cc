#include "core/explain.h"

#include <cstdio>
#include <map>

namespace sama {
namespace {

std::string Format(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

}  // namespace

std::string DescribeTransformation(const Transformation& tau,
                                   const OpWeights& weights) {
  if (tau.empty()) return "exact (substitution only)";
  // Group identical operations: "2×node-insert + edge-delete".
  std::map<std::string, size_t> counts;
  for (BasicOp op : tau.ops()) ++counts[BasicOpName(op)];
  std::string out;
  for (const auto& [name, count] : counts) {
    if (!out.empty()) out += " + ";
    if (count > 1) out += std::to_string(count) + "×";
    out += name;
  }
  out += " (cost " + Format("%.2f", tau.Cost(weights)) + ")";
  return out;
}

std::string ExplainAnswer(const QueryGraph& query, const Answer& answer,
                          const ScoreParams& params) {
  const TermDictionary& dict = query.dict();
  std::string out = "answer score " + Format("%.2f", answer.score) +
                    " = lambda " + Format("%.2f", answer.lambda_total) +
                    " + psi " + Format("%.2f", answer.psi_total);
  if (!answer.consistent) out += "  [relaxed bindings]";
  out += "\n";

  for (size_t i = 0; i < answer.parts.size(); ++i) {
    const ScoredPath& part = answer.parts[i];
    size_t qi = i < answer.query_path_index.size()
                    ? answer.query_path_index[i]
                    : i;
    if (qi < query.paths().size()) {
      out += "q" + std::to_string(qi + 1) + ": " +
             query.paths()[qi].ToString(dict) + "\n";
    }
    out += "    aligned to " + part.path->ToString(dict) + "\n";
    out += "    lambda " + Format("%.2f", part.lambda()) + ", " +
           DescribeTransformation(part.alignment->tau, params.weights) +
           "\n";
    // Bindings this path contributed, sorted for stable output.
    std::map<std::string, std::string> bindings;
    for (const auto& [var, value] : part.alignment->phi.bindings()) {
      bindings[var] = value.DisplayLabel();
    }
    for (const auto& [var, value] : bindings) {
      out += "    ?" + var + " := " + value + "\n";
    }
  }

  // Unmatched query paths (empty clusters) show up as missing indices.
  std::vector<bool> covered(query.paths().size(), false);
  for (size_t qi : answer.query_path_index) {
    if (qi < covered.size()) covered[qi] = true;
  }
  for (size_t qi = 0; qi < covered.size(); ++qi) {
    if (covered[qi]) continue;
    out += "q" + std::to_string(qi + 1) + ": " +
           query.paths()[qi].ToString(dict) +
           "\n    unmatched (whole-path deletion penalty applied)\n";
  }
  return out;
}

}  // namespace sama
