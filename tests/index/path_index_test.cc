#include "index/path_index.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "datasets/govtrack.h"
#include "datasets/lubm.h"

namespace sama {
namespace {

class PathIndexTest : public testing::TestWithParam<bool> {
 protected:
  PathIndexOptions Opts() {
    PathIndexOptions o;
    if (GetParam()) {
      std::string name =
          testing::UnitTest::GetInstance()->current_test_info()->name();
      for (char& c : name) {
        if (c == '/') c = '-';
      }
      dir_ = testing::TempDir() + "/idx_" + name;
      std::filesystem::create_directories(dir_);
      o.dir = dir_;
    }
    return o;
  }

  std::string dir_;
};

TEST_P(PathIndexTest, BuildsFigure1Index) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  EXPECT_EQ(index.path_count(), 19u);
  EXPECT_EQ(index.sources().size(), 7u);
  EXPECT_EQ(index.sinks().size(), 4u);
  const IndexStats& stats = index.stats();
  EXPECT_EQ(stats.num_triples, g.edge_count());
  EXPECT_EQ(stats.num_paths, 19u);
  // Hypergraph: one vertex per node, one hyperedge per triple + path.
  EXPECT_EQ(stats.hv, g.node_count());
  EXPECT_EQ(stats.he, g.edge_count() + 19u);
  EXPECT_GT(stats.disk_bytes, 0u);
  EXPECT_GE(stats.build_millis, 0.0);
}

TEST_P(PathIndexTest, PathsRetrievableBySinkLabel) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  TermId hc = g.dict().Find(Term::Literal("Health Care"));
  ASSERT_NE(hc, kInvalidTermId);
  EXPECT_EQ(index.PathsWithSinkLabel(hc).size(), 10u);
  TermId male = g.dict().Find(Term::Literal("Male"));
  EXPECT_EQ(index.PathsWithSinkLabel(male).size(), 4u);
  EXPECT_TRUE(index.PathsWithSinkLabel(kInvalidTermId - 1).empty());
}

TEST_P(PathIndexTest, SemanticSinkMatching) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  Thesaurus t = Thesaurus::BuiltinEnglish();
  // "Man" resolves to the Male sinks through the thesaurus.
  EXPECT_EQ(index.PathsWithSinkMatching(Term::Literal("Man"), &t).size(),
            4u);
  EXPECT_TRUE(
      index.PathsWithSinkMatching(Term::Literal("Man"), nullptr).empty());
}

TEST_P(PathIndexTest, PathsContainingLabel) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  // B1432 occurs in p1 (CB chain), p9, p10.
  std::vector<PathId> ids = index.PathsContaining(
      Term::Iri("http://gov.example.org/B1432"), nullptr);
  EXPECT_EQ(ids.size(), 3u);
  // Edge label "sponsor" occurs in all 10 sponsorship chains.
  EXPECT_EQ(index
                .PathsContaining(Term::Iri("http://gov.example.org/sponsor"),
                                 nullptr)
                .size(),
            10u);
}

TEST_P(PathIndexTest, GetPathRoundTrips) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  std::set<std::string> rendered;
  for (PathId id = 0; id < index.path_count(); ++id) {
    std::shared_ptr<const Path> p;
    ASSERT_TRUE(index.GetPath(id, &p).ok());
    rendered.insert(p->ToString(g.dict()));
  }
  EXPECT_EQ(rendered.size(), 19u);
  EXPECT_TRUE(rendered.count(
      "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care"));
}

TEST_P(PathIndexTest, ElementMappingFindsNodesAndEdges) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  std::vector<NodeId> nodes =
      index.NodesMatching(Term::Literal("Health Care"), nullptr);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(g.node_term(nodes[0]).value(), "Health Care");
  std::vector<EdgeId> edges = index.EdgesMatching(
      Term::Iri("http://gov.example.org/gender"), nullptr);
  EXPECT_EQ(edges.size(), 7u);
}

TEST_P(PathIndexTest, DropCachesKeepsDataReadable) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  ASSERT_TRUE(index.Build(g, Opts()).ok());
  ASSERT_TRUE(index.DropCaches().ok());
  std::shared_ptr<const Path> p;
  ASSERT_TRUE(index.GetPath(0, &p).ok());
  EXPECT_GE(p->length(), 2u);
}

TEST_P(PathIndexTest, EnumerationCapsRespected) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  PathIndexOptions o = Opts();
  o.enumerate.max_paths = 7;
  ASSERT_TRUE(index.Build(g, o).ok());
  EXPECT_EQ(index.path_count(), 7u);
}

INSTANTIATE_TEST_SUITE_P(DiskAndMemory, PathIndexTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Disk" : "Memory";
                         });

TEST(PathIndexThreadsTest, ConcurrentBuildMatchesSequential) {
  LubmConfig config;
  config.universities = 1;
  std::vector<Triple> triples = GenerateLubm(config);
  DataGraph g1 = DataGraph::FromTriples(triples);
  DataGraph g2 = DataGraph::FromTriples(triples);

  PathIndex seq, par;
  PathIndexOptions o;
  o.build_hypergraph = false;
  ASSERT_TRUE(seq.Build(g1, o).ok());
  o.num_threads = 4;
  ASSERT_TRUE(par.Build(g2, o).ok());
  ASSERT_EQ(seq.path_count(), par.path_count());
  // Same multiset of paths regardless of worker interleaving.
  std::multiset<std::string> a, b;
  for (PathId id = 0; id < seq.path_count(); ++id) {
    std::shared_ptr<const Path> p;
    ASSERT_TRUE(seq.GetPath(id, &p).ok());
    a.insert(p->ToString(g1.dict()));
    ASSERT_TRUE(par.GetPath(id, &p).ok());
    b.insert(p->ToString(g2.dict()));
  }
  EXPECT_EQ(a, b);
}

TEST(PathIndexStatsTest, HypergraphOptional) {
  DataGraph g = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  PathIndexOptions o;
  o.build_hypergraph = false;
  ASSERT_TRUE(index.Build(g, o).ok());
  EXPECT_EQ(index.stats().hv, 0u);
  EXPECT_EQ(index.stats().he, 0u);
  EXPECT_EQ(index.stats().num_paths, 19u);
}

}  // namespace
}  // namespace sama
