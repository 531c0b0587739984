// Property tests over randomly generated path pairs for the alignment
// hot path:
//   * the λ-cutoff early exit is exactly equivalent to computing the
//     full alignment and comparing (aborted ⟺ full λ ≥ cutoff);
//   * AlignmentMemo::AlignCached is indistinguishable from Align() in
//     both alignment modes, for any cutoff, whatever state the memo is
//     in (empty, primed with a full entry, primed with an aborted one),
//     to a caller that reads λ ≥ cutoff as aborted, and a hit hands out
//     the memoized entry itself;
//   * the DP alignment never costs more than the greedy scan on
//     conflict-free queries (its optimality claim).
// 1200+ seeded cases keep the sweep deterministic and minutes-safe.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/alignment.h"
#include "core/label_comparator.h"
#include "core/score_params.h"
#include "graph/path.h"
#include "rdf/dictionary.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct PathPair {
  Path p;  // Data path: constants only.
  Path q;  // Query path: constants + variables (all distinct).
};

// Draws |p| in [1, 8], |q| in [1, 8], labels from a 6-term vocabulary
// (small enough that matches and mismatches both occur often), and
// turns ~1/4 of q's node labels into fresh variables.
PathPair MakePair(std::mt19937& rng, TermDictionary* dict, int case_id) {
  std::uniform_int_distribution<int> len_dist(1, 8);
  std::uniform_int_distribution<int> label_dist(0, 5);
  std::uniform_int_distribution<int> var_dist(0, 3);
  PathPair pair;
  int np = len_dist(rng);
  for (int i = 0; i < np; ++i) {
    pair.p.nodes.push_back(static_cast<NodeId>(i));
    pair.p.node_labels.push_back(
        dict->Intern(Term::Literal("L" + std::to_string(label_dist(rng)))));
    if (i + 1 < np) {
      pair.p.edge_labels.push_back(
          dict->Intern(Term::Literal("e" + std::to_string(label_dist(rng)))));
    }
  }
  int nq = len_dist(rng);
  for (int i = 0; i < nq; ++i) {
    pair.q.nodes.push_back(static_cast<NodeId>(i));
    if (var_dist(rng) == 0) {
      // Unique name — no binding conflicts, so the DP optimum is a true
      // lower bound on the greedy cost.
      pair.q.node_labels.push_back(dict->Intern(Term::Variable(
          "v" + std::to_string(case_id) + "_" + std::to_string(i))));
    } else {
      pair.q.node_labels.push_back(
          dict->Intern(Term::Literal("L" + std::to_string(label_dist(rng)))));
    }
    if (i + 1 < nq) {
      pair.q.edge_labels.push_back(
          dict->Intern(Term::Literal("e" + std::to_string(label_dist(rng)))));
    }
  }
  return pair;
}

// Full structural equality — any divergence between the memoized and
// the direct computation must change at least one of these fields.
void ExpectSameAlignment(const PathAlignment& got, const PathAlignment& want,
                         const std::string& context) {
  EXPECT_EQ(got.lambda, want.lambda) << context;
  EXPECT_EQ(got.aborted, want.aborted) << context;
  EXPECT_EQ(got.nodes_of_p_not_in_q, want.nodes_of_p_not_in_q) << context;
  EXPECT_EQ(got.edges_of_p_not_in_q, want.edges_of_p_not_in_q) << context;
  EXPECT_EQ(got.nodes_inserted_in_q, want.nodes_inserted_in_q) << context;
  EXPECT_EQ(got.edges_inserted_in_q, want.edges_inserted_in_q) << context;
  EXPECT_EQ(got.nodes_deleted_from_q, want.nodes_deleted_from_q) << context;
  EXPECT_EQ(got.edges_deleted_from_q, want.edges_deleted_from_q) << context;
  EXPECT_EQ(got.tau.ops(), want.tau.ops()) << context;
  EXPECT_EQ(got.phi.bindings(), want.phi.bindings()) << context;
}

class AlignmentPropertyTest : public ::testing::Test {
 protected:
  AlignmentPropertyTest()
      : dict_(std::make_unique<TermDictionary>()),
        thesaurus_(Thesaurus::BuiltinEnglish()),
        cmp_(dict_.get(), &thesaurus_) {}

  std::unique_ptr<TermDictionary> dict_;
  Thesaurus thesaurus_;
  LabelComparator cmp_;
};

TEST_F(AlignmentPropertyTest, CutoffAbortsIffFullLambdaReachesCutoff) {
  std::mt19937 rng(20260806);
  ScoreParams params;  // Greedy (the cutoff only applies there).
  for (int i = 0; i < 1200; ++i) {
    PathPair pair = MakePair(rng, dict_.get(), i);
    PathAlignment full = Align(pair.p, pair.q, cmp_, params);
    ASSERT_FALSE(full.aborted);
    const double cutoffs[] = {0.0,
                              0.5,
                              full.lambda * 0.5,
                              full.lambda,
                              full.lambda + 0.25,
                              3.0,
                              kInf};
    for (double cutoff : cutoffs) {
      PathAlignment under = Align(pair.p, pair.q, cmp_, params, cutoff);
      std::string context = "case " + std::to_string(i) + " cutoff " +
                            std::to_string(cutoff) + " full lambda " +
                            std::to_string(full.lambda);
      EXPECT_EQ(under.aborted, full.lambda >= cutoff) << context;
      if (!under.aborted) ExpectSameAlignment(under, full, context);
    }
  }
}

TEST_F(AlignmentPropertyTest, MemoizedEqualsDirectInBothModes) {
  std::mt19937 rng(123457);
  for (AlignmentMode mode :
       {AlignmentMode::kGreedyLinear, AlignmentMode::kOptimalDp}) {
    ScoreParams params;
    params.alignment_mode = mode;
    AlignmentMemo memo(/*capacity=*/4096);
    for (int i = 0; i < 600; ++i) {
      PathPair pair = MakePair(rng, dict_.get(), i);
      PathAlignment direct = Align(pair.p, pair.q, cmp_, params);
      std::string context =
          "mode " + std::to_string(static_cast<int>(mode)) + " case " +
          std::to_string(i);
      // Miss (computes + stores), then hit (the stored entry itself).
      std::shared_ptr<const PathAlignment> first = memo.AlignCached(
          static_cast<uint64_t>(i), pair.p, pair.q, cmp_, params);
      std::shared_ptr<const PathAlignment> second = memo.AlignCached(
          static_cast<uint64_t>(i), pair.p, pair.q, cmp_, params);
      ExpectSameAlignment(*first, direct, context + " (miss)");
      EXPECT_EQ(second, first) << context << " (hit)";
    }
    CacheCounters c = memo.counters();
    EXPECT_EQ(c.hits, 600u);
    EXPECT_EQ(c.misses, 600u);
  }
}

TEST_F(AlignmentPropertyTest, MemoizedFullEntryAnswersAnyCutoff) {
  std::mt19937 rng(77);
  ScoreParams params;
  AlignmentMemo memo(4096);
  for (int i = 0; i < 400; ++i) {
    PathPair pair = MakePair(rng, dict_.get(), i);
    uint64_t id = static_cast<uint64_t>(i);
    // Prime the memo with the FULL alignment, then ask under cutoffs.
    std::shared_ptr<const PathAlignment> full =
        memo.AlignCached(id, pair.p, pair.q, cmp_, params);
    const double cutoffs[] = {0.0, full->lambda * 0.5, full->lambda,
                              full->lambda + 0.25, kInf};
    for (double cutoff : cutoffs) {
      PathAlignment direct = Align(pair.p, pair.q, cmp_, params, cutoff);
      std::shared_ptr<const PathAlignment> cached =
          memo.AlignCached(id, pair.p, pair.q, cmp_, params, cutoff);
      std::string context = "case " + std::to_string(i) + " cutoff " +
                            std::to_string(cutoff);
      // Served as stored: a λ at or past the cutoff reads as aborted.
      EXPECT_EQ(cached, full) << context;
      EXPECT_EQ(cached->aborted || cached->lambda >= cutoff, direct.aborted)
          << context;
      // Callers never read φ/τ/λ of an aborted alignment (ScoreChunk
      // discards it), so equality is only required on survivors.
      if (!direct.aborted) ExpectSameAlignment(*cached, direct, context);
    }
  }
}

TEST_F(AlignmentPropertyTest, MemoizedAbortedEntryHandlesLooserAndStricter) {
  std::mt19937 rng(991);
  ScoreParams params;
  for (int i = 0; i < 400; ++i) {
    PathPair pair = MakePair(rng, dict_.get(), i);
    PathAlignment full = Align(pair.p, pair.q, cmp_, params);
    if (full.lambda <= 0.0) continue;  // Exact match: no abort possible.
    uint64_t id = static_cast<uint64_t>(i);
    // Prime with an ABORTED entry (cutoff at half the full λ).
    AlignmentMemo memo(64);
    double strict = full.lambda * 0.5;
    std::shared_ptr<const PathAlignment> primed =
        memo.AlignCached(id, pair.p, pair.q, cmp_, params, strict);
    ASSERT_TRUE(primed->aborted) << "case " << i;
    // A cutoff at or below the memoized partial λ would abort too:
    // served without recomputation.
    std::shared_ptr<const PathAlignment> stricter = memo.AlignCached(
        id, pair.p, pair.q, cmp_, params, primed->lambda * 0.5);
    EXPECT_EQ(stricter, primed) << "case " << i;
    // A looser cutoff the partial λ cannot answer must recompute; the
    // oracle is the direct call.
    double loose = full.lambda + 1.0;
    PathAlignment direct = Align(pair.p, pair.q, cmp_, params, loose);
    std::shared_ptr<const PathAlignment> cached =
        memo.AlignCached(id, pair.p, pair.q, cmp_, params, loose);
    ASSERT_FALSE(direct.aborted) << "case " << i;
    ExpectSameAlignment(*cached, direct, "case " + std::to_string(i));
    // The recomputed (now full) entry replaced the aborted one.
    EXPECT_EQ(memo.AlignCached(id, pair.p, pair.q, cmp_, params, loose),
              cached)
        << "case " << i;
    // The aborted entry a caller still holds is unchanged.
    EXPECT_TRUE(primed->aborted) << "case " << i;
  }
}

TEST_F(AlignmentPropertyTest, DpNeverCostsMoreThanGreedyWithoutConflicts) {
  std::mt19937 rng(31337);
  ScoreParams greedy;
  ScoreParams optimal;
  optimal.alignment_mode = AlignmentMode::kOptimalDp;
  for (int i = 0; i < 1200; ++i) {
    PathPair pair = MakePair(rng, dict_.get(), i);
    PathAlignment g = Align(pair.p, pair.q, cmp_, greedy);
    PathAlignment o = Align(pair.p, pair.q, cmp_, optimal);
    // Variables are all distinct, so no after-the-fact conflict charges:
    // the DP result is the true minimum.
    EXPECT_LE(o.lambda, g.lambda + 1e-9) << "case " << i;
  }
}

}  // namespace
}  // namespace sama
