#include "common/zipf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace sama {
namespace {

// The bug this guards against: weights assigned by declaration
// position meant reordering a query catalogue silently reshaped the
// sampled workload. Canonical (sorted-name) rank makes the weight a
// function of the name alone.
TEST(ZipfTest, WeightsFollowCanonicalRankNotDeclarationOrder) {
  std::vector<std::string> declared = {"Q1", "Q2", "Q3", "Q4"};
  std::vector<std::string> shuffled = {"Q3", "Q1", "Q4", "Q2"};
  std::vector<double> w_declared = ZipfWeights(declared, 1.1);
  std::vector<double> w_shuffled = ZipfWeights(shuffled, 1.1);
  for (size_t i = 0; i < declared.size(); ++i) {
    for (size_t j = 0; j < shuffled.size(); ++j) {
      if (declared[i] == shuffled[j]) {
        EXPECT_DOUBLE_EQ(w_declared[i], w_shuffled[j]) << declared[i];
      }
    }
  }
  // Canonical head gets the most mass, strictly decreasing with rank,
  // and the weights normalize.
  EXPECT_GT(w_declared[0], w_declared[1]);
  EXPECT_GT(w_declared[1], w_declared[2]);
  EXPECT_GT(w_declared[2], w_declared[3]);
  double total = 0;
  for (double w : w_declared) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfTest, WeightsMatchClosedForm) {
  std::vector<std::string> names = {"a", "b", "c"};
  double s = 0.8;
  std::vector<double> w = ZipfWeights(names, s);
  double z = 1.0 + 1.0 / std::pow(2.0, s) + 1.0 / std::pow(3.0, s);
  EXPECT_DOUBLE_EQ(w[0], 1.0 / z);
  EXPECT_DOUBLE_EQ(w[1], (1.0 / std::pow(2.0, s)) / z);
  EXPECT_DOUBLE_EQ(w[2], (1.0 / std::pow(3.0, s)) / z);
}

}  // namespace
}  // namespace sama
