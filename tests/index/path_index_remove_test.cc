// Incremental deletes: RemoveTriple must leave the index equivalent to
// a full rebuild over the reduced graph — tombstoned traversing paths,
// re-materialised prefixes/suffixes when an endpoint becomes terminal,
// and query answers that match the rebuilt index.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/govtrack.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

Term Gov(const std::string& local) {
  return Term::Iri("http://gov.example.org/" + local);
}

std::set<std::string> LivePaths(const PathIndex& index,
                                const DataGraph& graph) {
  std::set<std::string> out;
  for (PathId id = 0; id < index.path_count(); ++id) {
    std::shared_ptr<const Path> p;
    if (index.GetPath(id, &p).ok()) out.insert(p->ToString(graph.dict()));
  }
  return out;
}

bool SameTriple(const Triple& a, const Triple& b) {
  return a.subject == b.subject && a.predicate == b.predicate &&
         a.object == b.object;
}

class PathIndexRemoveTest : public testing::Test {
 protected:
  PathIndexRemoveTest()
      : graph_(DataGraph::FromTriples(GovTrackFigure1Triples())) {
    Status s = index_.Build(graph_, PathIndexOptions());
    EXPECT_TRUE(s.ok()) << s;
  }

  // Reference: a full rebuild over the base triples, plus `added`,
  // minus `removed` (applied in that order, duplicates collapsed the
  // same way the live graph collapses them).
  std::set<std::string> RebuildPaths(const std::vector<Triple>& added,
                                     const std::vector<Triple>& removed) {
    std::vector<Triple> triples = GovTrackFigure1Triples();
    triples.insert(triples.end(), added.begin(), added.end());
    for (const Triple& gone : removed) {
      for (auto it = triples.begin(); it != triples.end(); ++it) {
        if (SameTriple(*it, gone)) {
          triples.erase(it);
          break;
        }
      }
    }
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

TEST_F(PathIndexRemoveTest, AbsentDeleteIsNoOp) {
  uint64_t live_before = index_.live_path_count();
  // Unknown subject, unknown predicate, and a never-connected pair all
  // no-op without touching the index.
  ASSERT_TRUE(index_
                  .RemoveTriple(&graph_, {Gov("Nobody"), Gov("sponsor"),
                                          Gov("A0056")})
                  .ok());
  ASSERT_TRUE(index_
                  .RemoveTriple(&graph_, {Gov("CarlaBunes"),
                                          Gov("neverUsed"), Gov("A0056")})
                  .ok());
  ASSERT_TRUE(index_
                  .RemoveTriple(&graph_, {Gov("CarlaBunes"), Gov("gender"),
                                          Gov("A0056")})
                  .ok());
  EXPECT_EQ(index_.live_path_count(), live_before);
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths({}, {}));
}

TEST_F(PathIndexRemoveTest, InsertThenDeleteRestoresOriginal) {
  std::set<std::string> original = LivePaths(index_, graph_);
  Triple extra{Gov("AliceNimber"), Gov("sponsor"), Gov("A9999")};
  ASSERT_TRUE(index_.AddTriple(&graph_, extra).ok());
  EXPECT_NE(LivePaths(index_, graph_), original);
  ASSERT_TRUE(index_.RemoveTriple(&graph_, extra).ok());
  EXPECT_EQ(LivePaths(index_, graph_), original);
  EXPECT_EQ(index_.stats().num_triples, graph_.live_edge_count());
}

TEST_F(PathIndexRemoveTest, DeleteBaseEdgeMatchesRebuild) {
  // A mid-chain edge: paths traversing it split, the subject may become
  // a sink and the object a source — the oracle is the rebuild.
  Triple gone{Gov("CarlaBunes"), Gov("sponsor"), Gov("A0056")};
  ASSERT_TRUE(index_.RemoveTriple(&graph_, gone).ok());
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths({}, {gone}));
}

TEST_F(PathIndexRemoveTest, EverySingleBaseEdgeDeletesToRebuild) {
  // Exhaustive: deleting ANY one base triple must match its rebuild.
  // Each iteration uses fresh graph+index (deletes don't compose here).
  for (const Triple& gone : GovTrackFigure1Triples()) {
    SCOPED_TRACE(gone.subject.ToString() + " " + gone.predicate.ToString() +
                 " " + gone.object.ToString());
    DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
    PathIndex index;
    PathIndexOptions options;
    options.build_hypergraph = false;
    ASSERT_TRUE(index.Build(graph, options).ok());
    ASSERT_TRUE(index.RemoveTriple(&graph, gone).ok());
    EXPECT_EQ(LivePaths(index, graph), RebuildPaths({}, {gone}));
  }
}

TEST_F(PathIndexRemoveTest, ReAddAfterDeleteMatchesRebuild) {
  // Tombstoned paths must never be resurrected: the re-added edge gets
  // a fresh slot and fresh path ids, and the live set still matches the
  // rebuild over the (unchanged) logical triple set.
  Triple edge{Gov("CarlaBunes"), Gov("sponsor"), Gov("A0056")};
  ASSERT_TRUE(index_.RemoveTriple(&graph_, edge).ok());
  ASSERT_TRUE(index_.AddTriple(&graph_, edge).ok());
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths({}, {}));
  ASSERT_TRUE(index_.RemoveTriple(&graph_, edge).ok());
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths({}, {edge}));
}

TEST_F(PathIndexRemoveTest, InterleavedAddRemoveSequenceMatchesRebuild) {
  std::vector<Triple> added = {
      {Gov("NewPerson"), Gov("sponsor"), Gov("B1432")},
      {Gov("NewPerson"), Gov("gender"), Term::Literal("Female")},
      {Gov("AliceNimber"), Gov("sponsor"), Gov("A9999")},
      {Gov("A9999"), Gov("aTo"), Gov("B0532")},
  };
  std::vector<Triple> removed = {
      {Gov("NewPerson"), Gov("sponsor"), Gov("B1432")},
      {Gov("CarlaBunes"), Gov("sponsor"), Gov("A0056")},
  };
  ASSERT_TRUE(index_.AddTriple(&graph_, added[0]).ok());
  ASSERT_TRUE(index_.AddTriple(&graph_, added[1]).ok());
  ASSERT_TRUE(index_.RemoveTriple(&graph_, removed[0]).ok());
  ASSERT_TRUE(index_.AddTriple(&graph_, added[2]).ok());
  ASSERT_TRUE(index_.RemoveTriple(&graph_, removed[1]).ok());
  ASSERT_TRUE(index_.AddTriple(&graph_, added[3]).ok());
  EXPECT_EQ(LivePaths(index_, graph_), RebuildPaths(added, removed));
}

TEST_F(PathIndexRemoveTest, QueriesReflectDeletes) {
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&graph_, &index_, &thesaurus);
  std::vector<Triple> patterns = {
      {Term::Variable("p"), Gov("gender"), Term::Literal("Male")}};
  auto before = engine.Execute(engine.BuildQueryGraph(patterns), 10);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 4u);

  ASSERT_TRUE(index_
                  .RemoveTriple(&graph_, {Gov("JeffRyser"), Gov("gender"),
                                          Term::Literal("Male")})
                  .ok());
  auto after = engine.Execute(engine.BuildQueryGraph(patterns), 10);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 3u);
}

TEST_F(PathIndexRemoveTest, SinkLookupCacheStaysPreciseAcrossDeletes) {
  index_.ConfigureQueryCache(true);  // Off until enabled.
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  Term health_care = Term::Literal("Health Care");
  Term male = Term::Literal("Male");

  // Prime the lookup cache for both labels.
  IndexCacheCounters warm;
  index_.PathsWithSinkMatching(health_care, &thesaurus, &warm);
  index_.PathsWithSinkMatching(male, &thesaurus, &warm);
  IndexCacheCounters primed;
  index_.PathsWithSinkMatching(health_care, &thesaurus, &primed);
  ASSERT_GT(primed.lookups.hits, 0u) << "cache never primed";

  // Delete a gender edge: "Male" lookups are stale, "Health Care" is
  // untouched — precise invalidation must keep the latter cached.
  // Passing the query thesaurus scopes the sweep (nullptr would drop
  // thesaurus-cached entries conservatively).
  ASSERT_TRUE(index_
                  .RemoveTriple(&graph_, {Gov("JeffRyser"), Gov("gender"),
                                          male},
                                &thesaurus)
                  .ok());
  IndexCacheCounters unrelated;
  size_t health_paths =
      index_.PathsWithSinkMatching(health_care, &thesaurus, &unrelated)
          .size();
  EXPECT_GT(unrelated.lookups.hits, 0u)
      << "an update to an unrelated label evicted this entry";
  IndexCacheCounters stale;
  std::vector<PathId> male_paths =
      index_.PathsWithSinkMatching(male, &thesaurus, &stale);
  EXPECT_EQ(stale.lookups.hits, 0u)
      << "the changed label's entry survived and served stale paths";

  // Both answers are correct (fresh rebuild agrees on counts).
  DataGraph rebuilt_graph;
  {
    std::vector<Triple> triples = GovTrackFigure1Triples();
    for (auto it = triples.begin(); it != triples.end(); ++it) {
      if (SameTriple(*it, {Gov("JeffRyser"), Gov("gender"), male})) {
        triples.erase(it);
        break;
      }
    }
    rebuilt_graph = DataGraph::FromTriples(triples);
  }
  PathIndex rebuilt;
  PathIndexOptions options;
  options.build_hypergraph = false;
  ASSERT_TRUE(rebuilt.Build(rebuilt_graph, options).ok());
  EXPECT_EQ(male_paths.size(),
            rebuilt.PathsWithSinkMatching(male, &thesaurus).size());
  EXPECT_EQ(health_paths,
            rebuilt.PathsWithSinkMatching(health_care, &thesaurus).size());
}

TEST_F(PathIndexRemoveTest, WrongGraphRejected) {
  DataGraph other = DataGraph::FromTriples(GovTrackFigure1Triples());
  EXPECT_EQ(index_
                .RemoveTriple(&other, {Gov("CarlaBunes"), Gov("sponsor"),
                                       Gov("A0056")})
                .code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace sama
