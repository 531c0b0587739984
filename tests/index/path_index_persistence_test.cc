// PathIndex persistence: Build() into a directory, Open() it back
// without recomputing anything, and get identical query behaviour.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/govtrack.h"
#include "datasets/lubm.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/pidx_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(PathIndexPersistenceTest, ReopenedIndexAnswersIdentically) {
  std::string dir = FreshDir("roundtrip");
  std::vector<Triple> triples = GovTrackFigure1Triples();
  DataGraph graph = DataGraph::FromTriples(triples);
  PathIndexOptions options;
  options.dir = dir;
  IndexStats built_stats;
  {
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
    built_stats = index.stats();
  }  // Index object destroyed; files remain.

  // Same triples -> same graph -> same term ids.
  DataGraph graph2 = DataGraph::FromTriples(triples);
  PathIndex reopened;
  ASSERT_TRUE(reopened.Open(&graph2, options).ok());

  EXPECT_EQ(reopened.path_count(), built_stats.num_paths);
  EXPECT_EQ(reopened.stats().hv, built_stats.hv);
  EXPECT_EQ(reopened.stats().he, built_stats.he);
  EXPECT_EQ(reopened.sources().size(), 7u);
  EXPECT_EQ(reopened.sinks().size(), 4u);

  TermId hc = graph2.dict().Find(Term::Literal("Health Care"));
  EXPECT_EQ(reopened.PathsWithSinkLabel(hc).size(), 10u);

  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  EXPECT_EQ(
      reopened.PathsWithSinkMatching(Term::Literal("Man"), &thesaurus)
          .size(),
      4u);
  std::shared_ptr<const Path> p;
  ASSERT_TRUE(reopened.GetPath(0, &p).ok());
  EXPECT_GE(p->length(), 2u);
}

TEST(PathIndexPersistenceTest, FullEngineOverReopenedIndex) {
  std::string dir = FreshDir("engine");
  std::vector<Triple> triples = GovTrackFigure1Triples();
  DataGraph graph = DataGraph::FromTriples(triples);
  PathIndexOptions options;
  options.dir = dir;
  {
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
  }
  DataGraph graph2 = DataGraph::FromTriples(triples);
  PathIndex index;
  ASSERT_TRUE(index.Open(&graph2, options).ok());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&graph2, &index, &thesaurus);
  QueryGraph q1 = engine.BuildQueryGraph(GovTrackQuery1Patterns());
  auto answers = engine.Execute(q1, 3);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_FALSE(answers->empty());
  EXPECT_DOUBLE_EQ((*answers)[0].lambda_total, 0.0);
  EXPECT_EQ((*answers)[0].binding.Lookup("v3")->DisplayLabel(),
            "PierceDickes");
}

// Score, λ, Ψ and part ids of every answer, one answer per line.
std::string AnswerSignature(const std::vector<Answer>& answers) {
  std::string out;
  char buf[96];
  for (const Answer& a : answers) {
    std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|", a.score,
                  a.lambda_total, a.psi_total);
    out += buf;
    for (const ScoredPath& part : a.parts) {
      out += std::to_string(part.id) + ',';
    }
    out += '\n';
  }
  return out;
}

std::string QueryOneSignature(const DataGraph& graph, const PathIndex& index) {
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&graph, &index, &thesaurus);
  auto answers =
      engine.Execute(engine.BuildQueryGraph(GovTrackQuery1Patterns()), 10);
  EXPECT_TRUE(answers.ok()) << answers.status();
  return answers.ok() ? AnswerSignature(*answers) : "";
}

// An Open that fails after opening its stores (here: unreadable
// metadata) must not leave their records behind: a Build on the same
// object then equals a fresh Build, and so does the index it commits.
TEST(PathIndexPersistenceTest, BuildAfterFailedOpenMatchesFreshBuild) {
  std::string dir = FreshDir("failed_open");
  std::vector<Triple> triples = GovTrackFigure1Triples();
  PathIndexOptions options;
  options.dir = dir;
  DataGraph fresh_graph = DataGraph::FromTriples(triples);
  IndexStats fresh_stats;
  std::string fresh_answers;
  {
    PathIndex fresh;
    ASSERT_TRUE(fresh.Build(fresh_graph, options).ok());
    fresh_stats = fresh.stats();
    fresh_answers = QueryOneSignature(fresh_graph, fresh);
  }
  ASSERT_FALSE(fresh_answers.empty());

  {
    std::ofstream meta(dir + "/index.meta",
                       std::ios::binary | std::ios::trunc);
    meta << "garbage";
  }
  DataGraph graph = DataGraph::FromTriples(triples);
  PathIndex index;
  ASSERT_FALSE(index.Open(&graph, options).ok());
  ASSERT_TRUE(index.Build(graph, options).ok());
  EXPECT_EQ(index.path_count(), fresh_stats.num_paths);
  EXPECT_EQ(index.stats().num_paths, fresh_stats.num_paths);
  EXPECT_EQ(index.stats().hv, fresh_stats.hv);
  EXPECT_EQ(index.stats().he, fresh_stats.he);
  EXPECT_EQ(QueryOneSignature(graph, index), fresh_answers);

  DataGraph reopened_graph = DataGraph::FromTriples(triples);
  PathIndex reopened;
  ASSERT_TRUE(reopened.Open(&reopened_graph, options).ok());
  EXPECT_EQ(reopened.path_count(), fresh_stats.num_paths);
  EXPECT_EQ(reopened.stats().hv, fresh_stats.hv);
  EXPECT_EQ(reopened.stats().he, fresh_stats.he);
  EXPECT_EQ(QueryOneSignature(reopened_graph, reopened), fresh_answers);
}

TEST(PathIndexPersistenceTest, MismatchedGraphRejected) {
  std::string dir = FreshDir("mismatch");
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndexOptions options;
  options.dir = dir;
  {
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
  }
  DataGraph other = DataGraph::FromTriples(GenerateLubm(LubmConfig()));
  PathIndex index;
  Status s = index.Open(&other, options);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s;
}

TEST(PathIndexPersistenceTest, OpenRequiresDir) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndex index;
  EXPECT_EQ(index.Open(&graph, PathIndexOptions()).code(),
            Status::Code::kInvalidArgument);
}

TEST(PathIndexPersistenceTest, MissingMetaIsError) {
  std::string dir = FreshDir("missingmeta");
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndexOptions options;
  options.dir = dir;
  PathIndex index;
  Status s = index.Open(&graph, options);
  EXPECT_FALSE(s.ok());
}

TEST(PathIndexPersistenceTest, OpenWithoutHypergraph) {
  std::string dir = FreshDir("nohyper");
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  PathIndexOptions options;
  options.dir = dir;
  options.build_hypergraph = false;
  {
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
  }
  PathIndex index;
  ASSERT_TRUE(index.Open(&graph, options).ok());
  EXPECT_EQ(index.path_count(), 19u);
}

TEST(PathIndexPersistenceTest, UpdatesAndQueriesSurviveReopen) {
  // The regression scenario: a query interns terms (the variable, a
  // novel literal) into the shared dictionary BEFORE updates are
  // applied, shifting later TermIds; the persisted dictionary image
  // must restore the exact id space and the journal must replay the
  // updates into the base graph.
  std::string dir = FreshDir("journal");
  std::vector<Triple> triples = GovTrackFigure1Triples();
  PathIndexOptions options;
  options.dir = dir;
  {
    DataGraph graph = DataGraph::FromTriples(triples);
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
    Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
    SamaEngine engine(&graph, &index, &thesaurus);
    // Pollute the dictionary with query-only terms.
    (void)engine.Execute(
        engine.BuildQueryGraph(
            {{Term::Variable("who"),
              Term::Iri("http://gov.example.org/gender"),
              Term::Literal("NeverSeenValue")}}),
        5);
    // Incremental updates, including one that extends a former sink
    // (tombstoning old paths).
    ASSERT_TRUE(index
                    .AddTriple(&graph,
                               {Term::Iri("http://gov.example.org/Dana"),
                                Term::Iri("http://gov.example.org/gender"),
                                Term::Literal("Male")})
                    .ok());
    ASSERT_TRUE(
        index
            .AddTriple(&graph,
                       {Term::Literal("Health Care"),
                        Term::Iri("http://gov.example.org/category"),
                        Term::Literal("Domestic Policy")})
            .ok());
    ASSERT_TRUE(index.Checkpoint().ok());
  }

  DataGraph base = DataGraph::FromTriples(triples);
  PathIndex reopened;
  ASSERT_TRUE(reopened.Open(&base, options).ok());
  // The journal replay extended the graph.
  EXPECT_EQ(base.edge_count(), triples.size() + 2);
  // Tombstones survived: the Health Care sink paths were replaced.
  TermId hc = base.dict().Find(Term::Literal("Health Care"));
  EXPECT_TRUE(reopened.PathsWithSinkLabel(hc).empty());
  TermId dp = base.dict().Find(Term::Literal("Domestic Policy"));
  ASSERT_NE(dp, kInvalidTermId);
  EXPECT_FALSE(reopened.PathsWithSinkLabel(dp).empty());
  // The new person answers queries with correct labels.
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&base, &reopened, &thesaurus);
  auto answers = engine.Execute(
      engine.BuildQueryGraph({{Term::Variable("p"),
                               Term::Iri("http://gov.example.org/gender"),
                               Term::Literal("Male")}}),
      10);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 5u);
  std::set<std::string> names;
  for (const Answer& a : *answers) {
    names.insert(a.binding.Lookup("p")->DisplayLabel());
  }
  EXPECT_TRUE(names.count("Dana")) << "journal replay lost the update";
  EXPECT_TRUE(names.count("PierceDickes"));
}

TEST(PathIndexPersistenceTest, DictionaryDriftRejected) {
  std::string dir = FreshDir("drift");
  std::vector<Triple> triples = GovTrackFigure1Triples();
  {
    DataGraph graph = DataGraph::FromTriples(triples);
    PathIndexOptions options;
    options.dir = dir;
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
  }
  // A graph over the same triples but with an extra term interned in a
  // conflicting slot.
  DataGraph drifted = DataGraph::FromTriples(triples);
  drifted.dict().Intern(Term::Literal("intruder"));
  PathIndexOptions options;
  options.dir = dir;
  PathIndex index;
  // Build saved no extra terms, so the intruder slot never collides …
  // unless updates/queries had claimed it. Opening still succeeds here
  // because the saved dictionary is a prefix of the drifted one.
  EXPECT_TRUE(index.Open(&drifted, options).ok());

  // Now the conflicting case: the saved image has terms the drifted
  // graph assigned differently.
  std::string dir2 = FreshDir("drift2");
  {
    DataGraph graph = DataGraph::FromTriples(triples);
    PathIndexOptions options2;
    options2.dir = dir2;
    PathIndex building;
    ASSERT_TRUE(building.Build(graph, options2).ok());
    ASSERT_TRUE(building
                    .AddTriple(&graph,
                               {Term::Iri("http://gov.example.org/X"),
                                Term::Iri("http://gov.example.org/gender"),
                                Term::Literal("Male")})
                    .ok());
    ASSERT_TRUE(building.Checkpoint().ok());
  }
  DataGraph conflicting = DataGraph::FromTriples(triples);
  conflicting.dict().Intern(Term::Literal("intruder"));  // Steals X's id.
  PathIndexOptions options2;
  options2.dir = dir2;
  PathIndex index2;
  EXPECT_EQ(index2.Open(&conflicting, options2).code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace sama
