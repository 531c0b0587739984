// Incremental index maintenance (§7 future work): AddTriple must leave
// the index equivalent to a full rebuild over the extended graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/engine.h"
#include "datasets/govtrack.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

Term Gov(const std::string& local) {
  return Term::Iri("http://gov.example.org/" + local);
}

// Renders the live paths of an index as a sorted set of strings.
std::set<std::string> LivePaths(const PathIndex& index,
                                const DataGraph& graph) {
  std::set<std::string> out;
  for (PathId id = 0; id < index.path_count(); ++id) {
    std::shared_ptr<const Path> p;
    if (index.GetPath(id, &p).ok()) out.insert(p->ToString(graph.dict()));
  }
  return out;
}

class PathIndexUpdateTest : public testing::Test {
 protected:
  PathIndexUpdateTest()
      : graph_(DataGraph::FromTriples(GovTrackFigure1Triples())) {
    Status s = index_.Build(graph_, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s;
  }

  // Reference: full rebuild over the same extended triples.
  std::set<std::string> RebuildPaths(const std::vector<Triple>& extra) {
    std::vector<Triple> triples = GovTrackFigure1Triples();
    triples.insert(triples.end(), extra.begin(), extra.end());
    DataGraph graph = DataGraph::FromTriples(triples);
    PathIndex index;
    PathIndexOptions options;
    options.build_hypergraph = false;
    EXPECT_TRUE(index.Build(graph, options).ok());
    return LivePaths(index, graph);
  }

  DataGraph graph_;
  PathIndex index_;
};

TEST_F(PathIndexUpdateTest, DuplicateTripleIsNoOp) {
  uint64_t before = index_.path_count();
  Triple existing{Gov("CarlaBunes"), Gov("sponsor"), Gov("A0056")};
  ASSERT_TRUE(index_.AddTriple(&graph_, existing).ok());
  EXPECT_EQ(index_.path_count(), before);
  EXPECT_EQ(index_.live_path_count(), before);
}

TEST_F(PathIndexUpdateTest, NewAmendmentChainMatchesRebuild) {
  // Alice Nimber also sponsors a new amendment to B0532.
  std::vector<Triple> extra = {
      {Gov("AliceNimber"), Gov("sponsor"), Gov("A9999")},
      {Gov("A9999"), Gov("aTo"), Gov("B0532")},
  };
  for (const Triple& t : extra) {
    ASSERT_TRUE(index_.AddTriple(&graph_, t).ok());
  }
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths(extra));
}

TEST_F(PathIndexUpdateTest, ExtendingASinkTombstonesOldPaths) {
  // Give Health Care an outgoing edge: it stops being a sink, so the
  // 10 old ...-subject-HealthCare paths must be replaced by extended
  // ones.
  Triple extension{Term::Literal("Health Care"), Gov("category"),
                   Term::Literal("Domestic Policy")};
  uint64_t live_before = index_.live_path_count();
  ASSERT_TRUE(index_.AddTriple(&graph_, extension).ok());
  EXPECT_LT(index_.live_path_count(),
            live_before + 20);  // Sanity: no blow-up.
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths({extension}));
  // Old sink postings are gone.
  TermId hc = graph_.dict().Find(Term::Literal("Health Care"));
  EXPECT_TRUE(index_.PathsWithSinkLabel(hc).empty());
  // The new sink has the extended paths.
  TermId dp = graph_.dict().Find(Term::Literal("Domestic Policy"));
  ASSERT_NE(dp, kInvalidTermId);
  EXPECT_EQ(index_.PathsWithSinkLabel(dp).size(), 10u);
}

TEST_F(PathIndexUpdateTest, ExtendingASourceTombstonesOldPaths) {
  // Give Carla Bunes an incoming edge: she stops being a source, so her
  // old paths are replaced by longer ones starting at the new source.
  Triple extension{Gov("Committee7"), Gov("hasMember"),
                   Gov("CarlaBunes")};
  ASSERT_TRUE(index_.AddTriple(&graph_, extension).ok());
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths({extension}));
  // Queries now see the extended paths.
  std::vector<PathId> via_cb =
      index_.PathsContaining(Gov("CarlaBunes"), nullptr);
  ASSERT_FALSE(via_cb.empty());
  for (PathId id : via_cb) {
    std::shared_ptr<const Path> p;
    ASSERT_TRUE(index_.GetPath(id, &p).ok());
    EXPECT_EQ(graph_.node_term(p->nodes.front()).DisplayLabel(),
              "Committee7");
  }
}

TEST_F(PathIndexUpdateTest, BrandNewEntitiesWork) {
  std::vector<Triple> extra = {
      {Gov("NewPerson"), Gov("sponsor"), Gov("B1432")},
      {Gov("NewPerson"), Gov("gender"), Term::Literal("Female")},
  };
  for (const Triple& t : extra) {
    ASSERT_TRUE(index_.AddTriple(&graph_, t).ok());
  }
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths(extra));
  // The new person's paths are retrievable by label.
  EXPECT_EQ(index_.PathsContaining(Gov("NewPerson"), nullptr).size(), 2u);
}

TEST_F(PathIndexUpdateTest, QueriesReflectUpdates) {
  // Before: 4 male sponsors. Add a fifth.
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&graph_, &index_, &thesaurus);
  std::vector<Triple> patterns = {
      {Term::Variable("p"), Gov("gender"), Term::Literal("Male")}};
  auto before = engine.Execute(engine.BuildQueryGraph(patterns), 10);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 4u);

  ASSERT_TRUE(index_
                  .AddTriple(&graph_, {Gov("NewSenator"), Gov("gender"),
                                       Term::Literal("Male")})
                  .ok());
  auto after = engine.Execute(engine.BuildQueryGraph(patterns), 10);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 5u);
}

TEST_F(PathIndexUpdateTest, StatsTrackLiveCounts) {
  uint64_t triples_before = index_.stats().num_triples;
  ASSERT_TRUE(index_
                  .AddTriple(&graph_, {Gov("X"), Gov("rel"), Gov("Y")})
                  .ok());
  EXPECT_EQ(index_.stats().num_triples, triples_before + 1);
  EXPECT_EQ(index_.stats().num_paths, index_.live_path_count());
}

TEST_F(PathIndexUpdateTest, WrongGraphRejected) {
  DataGraph other = DataGraph::FromTriples(GovTrackFigure1Triples());
  EXPECT_EQ(index_
                .AddTriple(&other, {Gov("X"), Gov("rel"), Gov("Y")})
                .code(),
            Status::Code::kInvalidArgument);
}

TEST_F(PathIndexUpdateTest, ManySequentialUpdatesStayConsistent) {
  std::vector<Triple> extra;
  for (int i = 0; i < 10; ++i) {
    Triple t{Gov("Person" + std::to_string(i)), Gov("sponsor"),
             Gov("B1432")};
    extra.push_back(t);
    ASSERT_TRUE(index_.AddTriple(&graph_, t).ok());
  }
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths(extra));
}

}  // namespace
}  // namespace sama
