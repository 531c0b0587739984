#include "core/forest_search.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <set>

#include "core/score.h"
#include "testing/fixtures.h"

namespace sama {
namespace {

class ForestSearchTest : public testing::Test {
 protected:
  std::vector<Answer> Search(const QueryGraph& query,
                             ForestSearchOptions options = {}) {
    IntersectionQueryGraph ig(query);
    auto clusters = BuildClusters(query, env_.index(), &env_.thesaurus(),
                                  params_, ClusteringOptions());
    EXPECT_TRUE(clusters.ok());
    auto answers = ForestSearch(query, ig, *clusters, params_, options);
    EXPECT_TRUE(answers.ok());
    return std::move(answers).value();
  }

  std::set<std::string> AnswerPathSet(const Answer& a) {
    std::set<std::string> out;
    for (const ScoredPath& part : a.parts) {
      out.insert(env_.Render(*part.path));
    }
    return out;
  }

  testing_util::GovTrackEnv env_;
  ScoreParams params_;
};

TEST_F(ForestSearchTest, FirstSolutionIsP1P10P20) {
  // §5: "the first solution is obtained by combining the paths p1, p10
  // and p20".
  QueryGraph query = env_.Query1();
  std::vector<Answer> answers = Search(query, {});
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(AnswerPathSet(answers[0]),
            (std::set<std::string>{
                "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care",
                "PierceDickes-sponsor-B1432-subject-Health Care",
                "PierceDickes-gender-Male"}));
  EXPECT_DOUBLE_EQ(answers[0].lambda_total, 0.0);
  EXPECT_TRUE(answers[0].consistent);
  // Bindings of the exact answer.
  EXPECT_EQ(answers[0].binding.Lookup("v1")->DisplayLabel(), "A0056");
  EXPECT_EQ(answers[0].binding.Lookup("v2")->DisplayLabel(), "B1432");
  EXPECT_EQ(answers[0].binding.Lookup("v3")->DisplayLabel(), "PierceDickes");
}

TEST_F(ForestSearchTest, AnswersSortedByScore) {
  QueryGraph query = env_.Query1();
  std::vector<Answer> answers = Search(query, {});
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_LE(answers[i - 1].score, answers[i].score);
  }
}

TEST_F(ForestSearchTest, KLimitsAnswerCount) {
  QueryGraph query = env_.Query1();
  ForestSearchOptions options;
  options.k = 2;
  EXPECT_LE(Search(query, options).size(), 2u);
  options.k = 1;
  EXPECT_EQ(Search(query, options).size(), 1u);
}

TEST_F(ForestSearchTest, DashedForestEdgeRanksSecond) {
  // Figure 4: the (p7, p1) combination (ψ = 0.5 conformity) is a valid
  // but worse solution than (p10, p1).
  QueryGraph query = env_.Query1();
  ForestSearchOptions options;
  options.k = 5;
  std::vector<Answer> answers = Search(query, options);
  ASSERT_GE(answers.size(), 2u);
  EXPECT_EQ(AnswerPathSet(answers[1]),
            (std::set<std::string>{
                "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care",
                "JeffRyser-sponsor-B0045-subject-Health Care",
                "JeffRyser-gender-Male"}));
  EXPECT_GT(answers[1].score, answers[0].score);
  // The dashed combination does not bind ?v2 consistently.
  EXPECT_FALSE(answers[1].consistent);
}

TEST_F(ForestSearchTest, RequireConnectedRejectsDisjointCombos) {
  QueryGraph query = env_.Query1();
  ForestSearchOptions options;
  options.k = 0;  // Everything.
  options.max_expansions = 10000;
  std::vector<Answer> connected = Search(query, options);
  // Among exact-alignment answers (Λ = 0), the AliceNimber chain can
  // only stand for q2 — and Alice has no gender-Male path to connect to
  // q3's cluster, so such combinations must have been rejected.
  for (const Answer& a : connected) {
    if (a.lambda_total != 0.0) continue;
    EXPECT_EQ(AnswerPathSet(a).count(
                  "AliceNimber-sponsor-B1432-subject-Health Care"),
              0u);
  }
  options.require_connected = false;
  std::vector<Answer> all = Search(query, options);
  EXPECT_GT(all.size(), connected.size());
}

TEST_F(ForestSearchTest, EmptyClusterPenalisedWhenPartialAllowed) {
  QueryGraph query = env_.engine().BuildQueryGraph(
      {{Term::Variable("x"), Term::Iri("http://gov.example.org/gender"),
        Term::Literal("Robot")},
       {Term::Variable("x"), Term::Iri("http://gov.example.org/gender"),
        Term::Literal("Male")}});
  std::vector<Answer> answers = Search(query, {});
  ASSERT_FALSE(answers.empty());
  // The unmatched path ?x-gender-Robot costs a·2 + c·1 = 4.
  EXPECT_DOUBLE_EQ(answers[0].lambda_total, 4.0);
}

TEST_F(ForestSearchTest, ToTriplesMaterialisesSubgraph) {
  QueryGraph query = env_.Query1();
  std::vector<Answer> answers = Search(query, {});
  ASSERT_FALSE(answers.empty());
  std::vector<Triple> triples = answers[0].ToTriples(env_.graph().dict());
  // p1 (3 edges) + p10 (2 edges) + p20 (1 edge), with the shared
  // B1432-subject-HC triple deduplicated = 5 distinct triples.
  EXPECT_EQ(triples.size(), 5u);
}

TEST_F(ForestSearchTest, BindingTupleExtractsSelectedVars) {
  QueryGraph query = env_.Query1();
  std::vector<Answer> answers = Search(query, {});
  ASSERT_FALSE(answers.empty());
  std::vector<Term> tuple = answers[0].BindingTuple({"v1", "v3", "nope"});
  ASSERT_EQ(tuple.size(), 3u);
  EXPECT_EQ(tuple[0].DisplayLabel(), "A0056");
  EXPECT_EQ(tuple[1].DisplayLabel(), "PierceDickes");
  EXPECT_EQ(tuple[2], Term::Literal(""));
}

TEST_F(ForestSearchTest, ExpansionBudgetBoundsWork) {
  QueryGraph query = env_.Query1();
  ForestSearchOptions options;
  options.k = 0;
  options.max_expansions = 3;
  EXPECT_LE(Search(query, options).size(), 3u);
}

// The server injects a per-request deadline into the search options.
// An expired deadline still returns Ok with a well-formed truncated
// list, and the run mutates nothing that could leak into a later search
// without one.
TEST_F(ForestSearchTest, ExpiredDeadlineTruncatesWithoutLeaking) {
  QueryGraph query = env_.Query1();
  IntersectionQueryGraph ig(query);
  auto clusters = BuildClusters(query, env_.index(), &env_.thesaurus(),
                                params_, ClusteringOptions());
  ASSERT_TRUE(clusters.ok());

  ForestSearchOptions base;
  base.k = 5;
  auto reference = ForestSearch(query, ig, *clusters, params_, base);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());

  // An already-expired deadline: still Ok, the (possibly empty) answers
  // stay sorted and k-capped, and the cut is reported as truncation
  // exactly like budget exhaustion.
  ForestSearchOptions dead = base;
  dead.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  ForestSearchStats cut_stats;
  auto cut = ForestSearch(query, ig, *clusters, params_, dead, nullptr,
                          nullptr, &cut_stats);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut_stats.truncated);
  EXPECT_LE(cut->size(), 5u);
  for (size_t i = 1; i < cut->size(); ++i) {
    EXPECT_LE((*cut)[i - 1].score, (*cut)[i].score);
  }

  // A fresh run without the deadline reproduces the reference bit for
  // bit.
  auto again = ForestSearch(query, ig, *clusters, params_, base);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), reference->size());
  for (size_t i = 0; i < again->size(); ++i) {
    EXPECT_EQ((*again)[i].score, (*reference)[i].score) << i;
    EXPECT_EQ((*again)[i].enum_key, (*reference)[i].enum_key) << i;
  }
}

// A table set matches exactly the (path id, λ) sequences it was built
// from; searching a copy of those clusters over it answers like
// ForestSearch, and the search refuses tables built with another
// require_connected.
TEST_F(ForestSearchTest, TablesServeOnlyTheirClusters) {
  QueryGraph query = env_.Query1();
  IntersectionQueryGraph ig(query);
  auto built = BuildClusters(query, env_.index(), &env_.thesaurus(), params_,
                             ClusteringOptions());
  ASSERT_TRUE(built.ok());
  const std::vector<Cluster>& clusters = *built;
  auto tables = BuildSearchTables(query, ig, clusters, params_, true);
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(SearchTablesMatch(**tables, clusters));
  EXPECT_GT(SearchTablesBytes(**tables), 0u);

  ForestSearchOptions options;
  options.k = 5;
  std::vector<Cluster> copy = clusters;
  auto reused = SearchForest(**tables, copy, params_, options);
  auto fresh = ForestSearch(query, ig, clusters, params_, options);
  ASSERT_TRUE(reused.ok());
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(reused->size(), fresh->size());
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ((*reused)[i].score, (*fresh)[i].score);
    EXPECT_EQ((*reused)[i].enum_key, (*fresh)[i].enum_key);
  }

  ASSERT_FALSE(clusters[0].paths.empty());
  std::vector<Cluster> other_id = clusters;
  other_id[0].paths[0].id += 1000;
  EXPECT_FALSE(SearchTablesMatch(**tables, other_id));
  std::vector<Cluster> other_lambda = clusters;
  auto moved =
      std::make_shared<PathAlignment>(*other_lambda[0].paths[0].alignment);
  moved->lambda = std::nextafter(moved->lambda, 1e9);
  other_lambda[0].paths[0].alignment = moved;
  EXPECT_FALSE(SearchTablesMatch(**tables, other_lambda));
  std::vector<Cluster> fewer = clusters;
  fewer[0].paths.pop_back();
  EXPECT_FALSE(SearchTablesMatch(**tables, fewer));
  std::vector<Cluster> emptied = clusters;
  emptied[0].paths.clear();
  EXPECT_FALSE(SearchTablesMatch(**tables, emptied));

  options.require_connected = false;
  auto refused = SearchForest(**tables, clusters, params_, options);
  EXPECT_EQ(refused.status().code(), Status::Code::kInvalidArgument);
}

// Two data paths sharing more nodes than a connectivity row's χ counter
// holds: the saturated entry is recounted from the node sets, so ψ is
// exact, and the same as without the rows (require_connected off).
TEST(ForestSearchLongPathTest, SharedNodeCountBeyondRowCounter) {
  constexpr int kChain = 300;
  const std::string ns = "http://long.example.org/";
  auto node = [&](int i) { return Term::Iri(ns + "n" + std::to_string(i)); };
  std::vector<Triple> triples;
  for (int i = 0; i + 1 < kChain; ++i) {
    triples.push_back({node(i), Term::Iri(ns + "next"), node(i + 1)});
  }
  triples.push_back({node(kChain - 1), Term::Iri(ns + "q"),
                     Term::Literal("end")});
  triples.push_back({node(kChain - 1), Term::Iri(ns + "r"),
                     Term::Literal("other")});
  DataGraph graph = DataGraph::FromTriples(triples);
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, PathIndexOptions()).ok());
  // Two query paths ?a-?b-"end" and ?a-?b-"other": |χ(q1, q2)| = 2.
  QueryGraph query = QueryGraph::FromPatterns(
      {{Term::Variable("a"), Term::Iri(ns + "next"), Term::Variable("b")},
       {Term::Variable("b"), Term::Iri(ns + "q"), Term::Literal("end")},
       {Term::Variable("b"), Term::Iri(ns + "r"), Term::Literal("other")}},
      graph.shared_dict());
  IntersectionQueryGraph ig(query);
  ASSERT_EQ(ig.edges().size(), 1u);
  ASSERT_EQ(ig.edges()[0].shared.size(), 2u);
  ScoreParams params;
  auto clusters =
      BuildClusters(query, index, nullptr, params, ClusteringOptions());
  ASSERT_TRUE(clusters.ok());

  ForestSearchOptions options;
  options.k = 1;
  auto connected = ForestSearch(query, ig, *clusters, params, options);
  options.require_connected = false;
  auto unconnected = ForestSearch(query, ig, *clusters, params, options);
  ASSERT_TRUE(connected.ok());
  ASSERT_TRUE(unconnected.ok());
  ASSERT_EQ(connected->size(), 1u);
  ASSERT_EQ(unconnected->size(), 1u);
  // The two chains share n0 .. n299.
  EXPECT_EQ((*connected)[0].psi_total, PsiCost(2, kChain, params));
  EXPECT_EQ((*unconnected)[0].psi_total, (*connected)[0].psi_total);
}

}  // namespace
}  // namespace sama
