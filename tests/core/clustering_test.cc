#include "core/clustering.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/alignment.h"
#include "core/label_comparator.h"
#include "testing/fixtures.h"

namespace sama {
namespace {

class ClusteringTest : public testing::Test {
 protected:
  // Builds the Figure-3 clusters for Q1.
  std::vector<Cluster> BuildQ1Clusters(
      const ClusteringOptions& options = {}) {
    query_ = env_.Query1();
    auto clusters = BuildClusters(query_, env_.index(), &env_.thesaurus(),
                                  ScoreParams(), options);
    EXPECT_TRUE(clusters.ok()) << clusters.status();
    return std::move(clusters).value();
  }

  // The cluster whose query path renders as `rendered`.
  const Cluster& ClusterFor(const std::vector<Cluster>& clusters,
                            const std::string& rendered) {
    for (const Cluster& c : clusters) {
      if (query_.paths()[c.query_path_index].ToString(query_.dict()) ==
          rendered) {
        return c;
      }
    }
    ADD_FAILURE() << "no cluster for " << rendered;
    return clusters.front();
  }

  testing_util::GovTrackEnv env_;
  QueryGraph query_;
};

TEST_F(ClusteringTest, OneClusterPerQueryPath) {
  std::vector<Cluster> clusters = BuildQ1Clusters();
  EXPECT_EQ(clusters.size(), 3u);
}

TEST_F(ClusteringTest, Cl1MatchesFigure3) {
  std::vector<Cluster> clusters = BuildQ1Clusters();
  const Cluster& cl1 = ClusterFor(
      clusters, "CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care");
  ASSERT_GE(cl1.size(), 6u);
  // Figure 3: p1 = CB-sponsor-A0056-aTo-B1432-subject-HC scores [0],
  // the other five length-4 chains score [1].
  EXPECT_EQ(env_.Render(*cl1.paths[0].path),
            "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care");
  EXPECT_DOUBLE_EQ(cl1.paths[0].lambda(), 0.0);
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(cl1.paths[i].lambda(), 1.0) << i;
    EXPECT_EQ(cl1.paths[i].path->length(), 4u);
  }
}

TEST_F(ClusteringTest, Cl2MatchesFigure3) {
  std::vector<Cluster> clusters = BuildQ1Clusters();
  const Cluster& cl2 =
      ClusterFor(clusters, "?v3-sponsor-?v2-subject-Health Care");
  // Figure 3: four direct sponsorships at [0] then six longer chains at
  // [1.5].
  ASSERT_EQ(cl2.size(), 10u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(cl2.paths[i].lambda(), 0.0) << i;
    EXPECT_EQ(cl2.paths[i].path->length(), 3u);
  }
  for (size_t i = 4; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(cl2.paths[i].lambda(), 1.5) << i;
    EXPECT_EQ(cl2.paths[i].path->length(), 4u);
  }
}

TEST_F(ClusteringTest, Cl3MatchesFigure3) {
  std::vector<Cluster> clusters = BuildQ1Clusters();
  const Cluster& cl3 = ClusterFor(clusters, "?v3-gender-Male");
  // Figure 3: exactly the four Male sponsors, all at [0].
  ASSERT_EQ(cl3.size(), 4u);
  std::set<std::string> rendered;
  for (const ScoredPath& sp : cl3.paths) {
    EXPECT_DOUBLE_EQ(sp.lambda(), 0.0);
    rendered.insert(env_.Render(*sp.path));
  }
  EXPECT_EQ(rendered, (std::set<std::string>{
                          "JeffRyser-gender-Male", "KeithFarmer-gender-Male",
                          "JohnMcRie-gender-Male",
                          "PierceDickes-gender-Male"}));
}

TEST_F(ClusteringTest, SamePathDifferentScoresAcrossClusters) {
  // The paper highlights p1 occurring in both cl1 (score 0) and cl2
  // (score 1.5).
  std::vector<Cluster> clusters = BuildQ1Clusters();
  const Cluster& cl1 = ClusterFor(
      clusters, "CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care");
  const Cluster& cl2 =
      ClusterFor(clusters, "?v3-sponsor-?v2-subject-Health Care");
  std::map<std::string, double> cl2_scores;
  for (const ScoredPath& sp : cl2.paths) {
    cl2_scores[env_.Render(*sp.path)] = sp.lambda();
  }
  std::string p1 = env_.Render(*cl1.paths[0].path);
  ASSERT_TRUE(cl2_scores.count(p1));
  EXPECT_DOUBLE_EQ(cl1.paths[0].lambda(), 0.0);
  EXPECT_DOUBLE_EQ(cl2_scores[p1], 1.5);
}

TEST_F(ClusteringTest, ClustersAreSortedAscending) {
  std::vector<Cluster> clusters = BuildQ1Clusters();
  for (const Cluster& c : clusters) {
    for (size_t i = 1; i < c.size(); ++i) {
      EXPECT_LE(c.paths[i - 1].lambda(), c.paths[i].lambda());
    }
  }
}

TEST_F(ClusteringTest, MaxCandidatesTruncatesKeepingBest) {
  ClusteringOptions options;
  options.max_candidates_per_cluster = 2;
  std::vector<Cluster> clusters = BuildQ1Clusters(options);
  for (const Cluster& c : clusters) {
    EXPECT_LE(c.size(), 2u);
  }
  const Cluster& cl2 =
      ClusterFor(clusters, "?v3-sponsor-?v2-subject-Health Care");
  EXPECT_DOUBLE_EQ(cl2.paths[0].lambda(), 0.0);
}

TEST_F(ClusteringTest, VariableSinkFallsBackToLastConstant) {
  // ?x sponsor ?y: sink is a variable; the last constant is the edge
  // label "sponsor", so candidates are paths containing it.
  query_ = env_.engine().BuildQueryGraph(
      {{Term::Variable("x"), Term::Iri("http://gov.example.org/sponsor"),
        Term::Variable("y")}});
  auto clusters = BuildClusters(query_, env_.index(), &env_.thesaurus(),
                                ScoreParams(), ClusteringOptions());
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters->size(), 1u);
  // All 10 sponsor chains contain "sponsor".
  EXPECT_GE((*clusters)[0].size(), 10u);
}

TEST_F(ClusteringTest, ParallelClusteringMatchesSequential) {
  query_ = env_.Query1();
  ThreadPool pool(3);
  auto a = BuildClusters(query_, env_.index(), &env_.thesaurus(),
                         ScoreParams(), ClusteringOptions());
  auto b = BuildClusters(query_, env_.index(), &env_.thesaurus(),
                         ScoreParams(), ClusteringOptions(), &pool);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ((*a)[i].size(), (*b)[i].size()) << i;
    EXPECT_EQ((*a)[i].query_path_index, (*b)[i].query_path_index);
    for (size_t j = 0; j < (*a)[i].size(); ++j) {
      EXPECT_EQ((*a)[i].paths[j].id, (*b)[i].paths[j].id);
      EXPECT_DOUBLE_EQ((*a)[i].paths[j].lambda(),
                       (*b)[i].paths[j].lambda());
    }
  }
}

TEST_F(ClusteringTest, EarlyExitMatchesExactComputation) {
  ClusteringOptions exact_options;
  exact_options.max_candidates_per_cluster = 3;
  exact_options.early_exit_alignment = false;
  ClusteringOptions early_options = exact_options;
  early_options.early_exit_alignment = true;
  std::vector<Cluster> exact = BuildQ1Clusters(exact_options);
  std::vector<Cluster> early = BuildQ1Clusters(early_options);
  ASSERT_EQ(exact.size(), early.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    ASSERT_EQ(exact[i].size(), early[i].size()) << i;
    for (size_t j = 0; j < exact[i].size(); ++j) {
      EXPECT_EQ(exact[i].paths[j].id, early[i].paths[j].id) << i;
      EXPECT_DOUBLE_EQ(exact[i].paths[j].lambda(),
                       early[i].paths[j].lambda());
    }
  }
}

TEST_F(ClusteringTest, UnmatchableSinkYieldsEmptyCluster) {
  query_ = env_.engine().BuildQueryGraph(
      {{Term::Variable("x"), Term::Iri("http://gov.example.org/gender"),
        Term::Literal("Robot")}});
  auto clusters = BuildClusters(query_, env_.index(), &env_.thesaurus(),
                                ScoreParams(), ClusteringOptions());
  ASSERT_TRUE(clusters.ok());
  EXPECT_TRUE((*clusters)[0].empty());
}

// Warm clustering hands out the cached records and memoized alignments
// themselves, and a cluster keeps what it points at alive: after the
// record cache is dropped and the memo has evicted every entry, an
// older cluster still reads exactly as a fresh build does.
TEST_F(ClusteringTest, WarmClustersShareCachedRecordsAndAlignments) {
  query_ = env_.Query1();
  env_.index().ConfigureQueryCache(true);
  constexpr size_t kMemoEntries = 64;
  AlignmentMemo memo(kMemoEntries, /*shards=*/1);
  QueryCaches caches;
  caches.alignment_memo = &memo;
  auto build = [&] {
    auto clusters = BuildClusters(query_, env_.index(), &env_.thesaurus(),
                                  ScoreParams(), ClusteringOptions(), nullptr,
                                  nullptr, nullptr, nullptr, &caches);
    EXPECT_TRUE(clusters.ok()) << clusters.status();
    return std::move(clusters).value();
  };
  const std::vector<Cluster> first = build();
  const std::vector<Cluster> second = build();
  ASSERT_EQ(first.size(), second.size());
  size_t candidates = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].size(), second[i].size()) << i;
    for (size_t j = 0; j < first[i].size(); ++j) {
      const ScoredPath& a = first[i].paths[j];
      const ScoredPath& b = second[i].paths[j];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.path.get(), b.path.get()) << i << "/" << j;
      EXPECT_EQ(a.alignment.get(), b.alignment.get()) << i << "/" << j;
      ++candidates;
    }
  }
  ASSERT_GT(candidates, 0u);
  ASSERT_LE(candidates, kMemoEntries);  // The warm build hit every entry.

  // Drop the records; push every memoized alignment out with unrelated
  // ids (one shard, so kMemoEntries inserts evict all of them).
  env_.index().DropQueryCaches();
  LabelComparator cmp(&query_.dict(), &env_.thesaurus());
  const Path& p = *first[0].paths[0].path;
  for (uint64_t id = 0; id < kMemoEntries; ++id) {
    (void)memo.AlignCached(uint64_t{1} << 40 | id, p, query_.paths()[0], cmp,
                           ScoreParams());
  }
  ASSERT_GE(memo.counters().evictions, candidates);

  const std::vector<Cluster> fresh = build();
  ASSERT_EQ(first.size(), fresh.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].size(), fresh[i].size()) << i;
    for (size_t j = 0; j < first[i].size(); ++j) {
      const ScoredPath& old = first[i].paths[j];
      const ScoredPath& now = fresh[i].paths[j];
      const std::string where = std::to_string(i) + "/" + std::to_string(j);
      EXPECT_EQ(old.id, now.id) << where;
      // Fresh reads, equal content.
      EXPECT_NE(old.path.get(), now.path.get()) << where;
      EXPECT_NE(old.alignment.get(), now.alignment.get()) << where;
      EXPECT_EQ(old.path->nodes, now.path->nodes) << where;
      EXPECT_EQ(*old.path, *now.path) << where;
      EXPECT_EQ(old.alignment->lambda, now.alignment->lambda) << where;
      EXPECT_EQ(old.alignment->aborted, now.alignment->aborted) << where;
      EXPECT_EQ(old.alignment->tau.ops(), now.alignment->tau.ops()) << where;
      EXPECT_EQ(old.alignment->phi.bindings(), now.alignment->phi.bindings())
          << where;
    }
  }
}

}  // namespace
}  // namespace sama
