#include "query/transformation.h"

#include <gtest/gtest.h>

namespace sama {
namespace {

TEST(SubstitutionTest, BindAndLookup) {
  Substitution phi;
  EXPECT_TRUE(phi.Bind("v1", Term::Iri("a")));
  ASSERT_NE(phi.Lookup("v1"), nullptr);
  EXPECT_EQ(*phi.Lookup("v1"), Term::Iri("a"));
  EXPECT_EQ(phi.Lookup("v2"), nullptr);
}

TEST(SubstitutionTest, RebindSameValueOk) {
  Substitution phi;
  EXPECT_TRUE(phi.Bind("v", Term::Iri("a")));
  EXPECT_TRUE(phi.Bind("v", Term::Iri("a")));
  EXPECT_FALSE(phi.Bind("v", Term::Iri("b")));  // Conflict.
  EXPECT_EQ(*phi.Lookup("v"), Term::Iri("a"));  // First wins.
}

TEST(SubstitutionTest, Merge) {
  Substitution a, b;
  a.Bind("x", Term::Iri("1"));
  b.Bind("y", Term::Iri("2"));
  EXPECT_TRUE(a.Merge(b));
  EXPECT_EQ(a.size(), 2u);
  Substitution conflict;
  conflict.Bind("x", Term::Iri("other"));
  EXPECT_FALSE(a.Merge(conflict));
}

TEST(TransformationTest, CostIsWeightedSum) {
  // The §4.3 example: inserting aTo-B1432 into q2 costs b + d = 1.5
  // with the paper's weights.
  Transformation tau;
  tau.Add(BasicOp::kNodeInsert);
  tau.Add(BasicOp::kEdgeInsert);
  OpWeights w;  // Paper defaults a=1, b=0.5, c=2, d=1.
  EXPECT_DOUBLE_EQ(tau.Cost(w), 1.5);
}

TEST(TransformationTest, RelabelingsAreFree) {
  Transformation tau;
  tau.Add(BasicOp::kNodeRelabel);
  tau.Add(BasicOp::kEdgeRelabel);
  EXPECT_DOUBLE_EQ(tau.Cost(OpWeights()), 0.0);
}

TEST(TransformationTest, EmptyTransformationIsExact) {
  Transformation tau;
  EXPECT_TRUE(tau.empty());
  EXPECT_DOUBLE_EQ(tau.Cost(OpWeights()), 0.0);
}

TEST(TransformationTest, MultiplyByLengthVariant) {
  Transformation tau;
  tau.Add(BasicOp::kNodeDelete);  // a = 1.
  tau.Add(BasicOp::kEdgeDelete);  // c = 2.
  OpWeights w;
  EXPECT_DOUBLE_EQ(tau.Cost(w), 3.0);
  // The paper's literal z·Σω formula: z = 2 operations.
  EXPECT_DOUBLE_EQ(tau.Cost(w, /*multiply_by_length=*/true), 6.0);
}

TEST(TransformationTest, CountsPerKind) {
  Transformation tau;
  tau.Add(BasicOp::kNodeInsert);
  tau.Add(BasicOp::kNodeInsert);
  tau.Add(BasicOp::kEdgeDelete);
  EXPECT_EQ(tau.Count(BasicOp::kNodeInsert), 2u);
  EXPECT_EQ(tau.Count(BasicOp::kEdgeDelete), 1u);
  EXPECT_EQ(tau.Count(BasicOp::kNodeDelete), 0u);
}

TEST(OpWeightsTest, PaperDefaults) {
  OpWeights w;
  EXPECT_DOUBLE_EQ(w.Of(BasicOp::kNodeDelete), 1.0);   // a
  EXPECT_DOUBLE_EQ(w.Of(BasicOp::kNodeInsert), 0.5);   // b
  EXPECT_DOUBLE_EQ(w.Of(BasicOp::kEdgeDelete), 2.0);   // c
  EXPECT_DOUBLE_EQ(w.Of(BasicOp::kEdgeInsert), 1.0);   // d
  EXPECT_DOUBLE_EQ(w.Of(BasicOp::kNodeRelabel), 0.0);
  EXPECT_DOUBLE_EQ(w.Of(BasicOp::kEdgeRelabel), 0.0);
}

TEST(OpWeightsTest, NamesAreDistinct) {
  EXPECT_STRNE(BasicOpName(BasicOp::kNodeDelete),
               BasicOpName(BasicOp::kNodeInsert));
  EXPECT_STRNE(BasicOpName(BasicOp::kEdgeDelete),
               BasicOpName(BasicOp::kEdgeRelabel));
}

}  // namespace
}  // namespace sama
