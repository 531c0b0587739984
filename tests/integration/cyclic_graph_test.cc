// End-to-end behaviour over cyclic and scale-free graphs: UOBM's
// student friendships create cycles, and the Barabási–Albert generator
// produces deep skewed DAGs — both must index and answer queries
// without path blow-ups or hangs.

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "datasets/lubm.h"
#include "datasets/scale_free.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

TEST(CyclicGraphTest, UobmIndexesAndAnswers) {
  LubmConfig config;
  config.universities = 1;
  config.departments_per_university = 2;
  DataGraph graph = DataGraph::FromTriples(GenerateUobm(config));

  PathIndexOptions options;
  options.enumerate.max_length = 8;  // Friendships lengthen paths.
  options.enumerate.max_paths = 100000;
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, options).ok());
  ASSERT_GT(index.path_count(), 0u);

  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&graph, &index, &thesaurus);

  // Friend-of-friend taking a course: traverses the cyclic friendship
  // edges.
  auto answers = engine.Execute(
      engine.BuildQueryGraph(
          {{Term::Variable("s1"),
            Term::Iri(std::string(kLubmNamespace) + "isFriendOf"),
            Term::Variable("s2")},
           {Term::Variable("s2"),
            Term::Iri(std::string(kLubmNamespace) + "takesCourse"),
            Term::Variable("c")}}),
      10);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(answers->empty());
  for (const Answer& a : *answers) {
    EXPECT_GE(a.score, 0.0);
  }
}

TEST(CyclicGraphTest, UobmPathsStaySimple) {
  LubmConfig config;
  config.universities = 1;
  DataGraph graph = DataGraph::FromTriples(GenerateUobm(config)); 
  PathIndexOptions options;
  options.enumerate.max_length = 8;
  options.enumerate.max_paths = 100000;
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, options).ok());
  // Every stored path visits each node at most once.
  std::shared_ptr<const Path> p;
  for (PathId id = 0; id < index.path_count(); ++id) {
    ASSERT_TRUE(index.GetPath(id, &p).ok());
    std::set<NodeId> distinct(p->nodes.begin(), p->nodes.end());
    ASSERT_EQ(distinct.size(), p->nodes.size()) << id;
    ASSERT_LE(p->length(), 8u);
  }
}

TEST(CyclicGraphTest, ScaleFreeGraphAnswersAttributeQueries) {
  ScaleFreeProfile profile = PBlogProfile(0.01);
  DataGraph graph = DataGraph::FromTriples(GenerateScaleFree(profile));
  PathIndexOptions options;
  options.enumerate.max_length = 6;
  options.enumerate.max_paths = 100000;
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, options).ok());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  SamaEngine engine(&graph, &index, &thesaurus);
  auto answers = engine.Execute(
      engine.BuildQueryGraph(
          {{Term::Variable("b"),
            Term::Iri("http://pblog.example.org/rel#topic"),
            Term::Literal("politics")}}),
      10);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(answers->empty());
  // Exact matches rank first.
  EXPECT_DOUBLE_EQ((*answers)[0].lambda_total, 0.0);
}

}  // namespace
}  // namespace sama
