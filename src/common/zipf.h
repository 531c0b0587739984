// Zipf-distributed popularity over a named catalogue, used by the
// served benchmark's query mix. Weights follow the CANONICAL rank of an
// item (names sorted lexicographically), not its declaration position,
// so reordering or filtering a query mix cannot silently reshape it.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace sama {

// Normalized Zipf weights for `names`: the item with rank r in the
// canonical order (names sorted lexicographically; ties keep their
// original relative order) gets weight proportional to 1/(r+1)^s.
// The returned vector is parallel to `names` and sums to 1.
inline std::vector<double> ZipfWeights(const std::vector<std::string>& names,
                                       double s) {
  const size_t n = names.size();
  std::vector<size_t> by_name(n);
  for (size_t i = 0; i < n; ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(), [&](size_t a, size_t b) {
    if (names[a] != names[b]) return names[a] < names[b];
    return a < b;
  });
  std::vector<double> weights(n, 0.0);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    double w = 1.0 / std::pow(static_cast<double>(r + 1), s);
    weights[by_name[r]] = w;
    total += w;
  }
  for (double& w : weights) w /= total;
  return weights;
}

}  // namespace sama
