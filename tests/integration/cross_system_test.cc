// Cross-system consistency properties, checked over randomly generated
// graphs and queries:
//   * DOGMA finds exactly the exact matcher's matches (it only prunes);
//   * SAPPER's and BOUNDED's results are supersets of the exact ones;
//   * for a query sampled from a source-to-sink path of the data graph
//     (so an exact answer exists), Sama's answer list contains a
//     combination with Λ = 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "baselines/bounded.h"
#include "baselines/dogma.h"
#include "baselines/exact.h"
#include "baselines/sapper.h"
#include "common/random.h"
#include "core/engine.h"
#include "eval/metrics.h"
#include "index/path_index.h"

namespace sama {
namespace {

// A small random layered DAG: `layers` layers of `width` entities, with
// random edges between consecutive layers drawn from a small predicate
// vocabulary, plus literal attributes on the last layer.
DataGraph RandomGraph(uint64_t seed) {
  Random rng(seed);
  // Mostly 2 layers so the source→sink structure matches the query
  // family below; deeper graphs exercise the skip path.
  size_t layers = 2 + (rng.Uniform(4) == 0 ? 1 : 0);
  size_t width = 3 + rng.Uniform(4);
  std::vector<std::vector<Term>> nodes(layers);
  for (size_t l = 0; l < layers; ++l) {
    for (size_t w = 0; w < width; ++w) {
      nodes[l].push_back(Term::Iri("http://rnd.org/n" + std::to_string(l) +
                                   "_" + std::to_string(w)));
    }
  }
  static const char* kPredicates[] = {"p", "q", "r"};
  static const char* kValues[] = {"red", "green", "blue"};
  std::vector<Triple> triples;
  std::vector<uint8_t> last_has_in(width, 0);
  for (size_t l = 0; l + 1 < layers; ++l) {
    for (size_t w = 0; w < width; ++w) {
      size_t fanout = 1 + rng.Uniform(2);
      for (size_t f = 0; f < fanout; ++f) {
        const char* predicate = kPredicates[rng.Uniform(3)];
        size_t to = rng.Uniform(width);
        triples.push_back({nodes[l][w],
                           Term::Iri("http://rnd.org/" +
                                     std::string(predicate)),
                           nodes[l + 1][to]});
        if (l + 2 == layers) last_has_in[to] = 1;
      }
    }
  }
  std::vector<size_t> tagged;
  for (size_t w = 0; w < width; ++w) {
    if (rng.Bernoulli(0.7)) {
      tagged.push_back(w);
      triples.push_back({nodes[layers - 1][w],
                         Term::Iri("http://rnd.org/tag"),
                         Term::Literal(kValues[rng.Uniform(3)])});
    }
  }
  // Without an edge into a tagged node the graph has no two-edge path,
  // and a query sampled from it has no variable. Add one such edge, or,
  // when no node drew a tag, tag a node that has an in-edge. Neither
  // draws, so every graph that already has such an edge is unchanged.
  bool linked = false;
  for (size_t w : tagged) linked = linked || last_has_in[w] != 0;
  if (!linked && !tagged.empty()) {
    triples.push_back({nodes[layers - 2][0], Term::Iri("http://rnd.org/p"),
                       nodes[layers - 1][tagged[0]]});
  } else if (!linked) {
    size_t w = std::find(last_has_in.begin(), last_has_in.end(), 1) -
               last_has_in.begin();
    triples.push_back({nodes[layers - 1][w], Term::Iri("http://rnd.org/tag"),
                       Term::Literal(kValues[0])});
  }
  return DataGraph::FromTriples(triples);
}

// A random 2-3 pattern query over the same vocabulary. Subjects are
// constants from the source layer and the object chain ends at a tag
// literal, so query endpoints coincide with data sources/sinks (the
// condition under which exact answers align at Λ = 0).
std::vector<Triple> RandomQuery(uint64_t seed) {
  Random rng(seed * 31 + 5);
  static const char* kPredicates[] = {"p", "q", "r"};
  static const char* kValues[] = {"red", "green", "blue"};
  auto source = [&rng] {
    return Term::Iri("http://rnd.org/n0_" +
                     std::to_string(rng.Uniform(3)));
  };
  std::vector<Triple> patterns;
  patterns.push_back({source(),
                      Term::Iri("http://rnd.org/" +
                                std::string(kPredicates[rng.Uniform(3)])),
                      Term::Variable("y")});
  patterns.push_back({Term::Variable("y"), Term::Iri("http://rnd.org/tag"),
                      Term::Literal(kValues[rng.Uniform(3)])});
  if (rng.Bernoulli(0.5)) {
    // A second source constant sharing ?y.
    patterns.push_back(
        {source(),
         Term::Iri("http://rnd.org/" +
                   std::string(kPredicates[rng.Uniform(3)])),
         Term::Variable("y")});
  }
  return patterns;
}

// A query sampled from the data graph: walk back from a random sink
// along random in-edges until a source, keep the source and the sink as
// constants and turn the nodes between them into variables. The first
// step back prefers an in-edge from a node that has in-edges itself, so
// the query has a variable whenever the graph has a two-edge path. Where
// the node before the sink has another in-edge from a source, that edge
// joins as a second branch on the same variable. The walked path is an
// exact match by construction, and the query's endpoints are data
// sources/sinks (the condition under which exact answers align at
// Λ = 0).
std::vector<Triple> SampledQuery(const DataGraph& graph, uint64_t seed) {
  Random rng(seed * 31 + 7);
  std::vector<EdgeId> into_sink, deep;
  for (NodeId sink : graph.Sinks()) {
    for (EdgeId e : graph.in_edges(sink)) {
      into_sink.push_back(e);
      if (graph.in_degree(graph.edge(e).from) > 0) deep.push_back(e);
    }
  }
  const std::vector<EdgeId>& first = deep.empty() ? into_sink : deep;
  if (first.empty()) return {};
  std::vector<EdgeId> path = {first[rng.Uniform(first.size())]};
  for (NodeId n = graph.edge(path[0]).from; graph.in_degree(n) > 0;
       n = graph.edge(path.back()).from) {
    const std::vector<EdgeId>& in = graph.in_edges(n);
    path.push_back(in[rng.Uniform(in.size())]);
  }
  // Edge i of `path` runs from variable v<i> to variable v<i-1>; the
  // last edge starts at the source, the first ends at the sink.
  auto var = [](size_t i) { return Term::Variable("v" + std::to_string(i)); };
  std::vector<Triple> patterns;
  for (size_t i = 0; i < path.size(); ++i) {
    const DataGraph::Edge& e = graph.edge(path[i]);
    patterns.push_back({i + 1 == path.size() ? graph.node_term(e.from)
                                              : var(i),
                        graph.edge_term(path[i]),
                        i == 0 ? graph.node_term(e.to) : var(i - 1)});
  }
  if (path.size() > 1) {
    for (EdgeId e : graph.in_edges(graph.edge(path[0]).from)) {
      NodeId from = graph.edge(e).from;
      if (e != path[1] && graph.in_degree(from) == 0) {
        patterns.push_back({graph.node_term(from), graph.edge_term(e), var(0)});
        break;
      }
    }
  }
  return patterns;
}

std::set<std::string> TupleSet(const std::vector<Match>& matches,
                               const std::vector<std::string>& vars) {
  std::set<std::string> out;
  for (const Match& m : matches) {
    out.insert(TupleKey(m.BindingTuple(vars)));
  }
  return out;
}

class CrossSystemTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CrossSystemTest, DogmaEqualsExact) {
  DataGraph graph = RandomGraph(GetParam());
  QueryGraph q = QueryGraph::FromPatterns(RandomQuery(GetParam()),
                                          graph.shared_dict());
  ExactMatcher exact(&graph);
  DogmaMatcher dogma(&graph);
  auto e = exact.Execute(q, 0);
  auto d = dogma.Execute(q, 0);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(d.ok());
  std::vector<std::string> vars = {"y"};
  EXPECT_EQ(TupleSet(*e, vars), TupleSet(*d, vars));
}

TEST_P(CrossSystemTest, SapperIsSupersetOfExact) {
  DataGraph graph = RandomGraph(GetParam());
  QueryGraph q = QueryGraph::FromPatterns(RandomQuery(GetParam()),
                                          graph.shared_dict());
  ExactMatcher exact(&graph);
  SapperMatcher sapper(&graph);
  auto e = exact.Execute(q, 0);
  auto s = sapper.Execute(q, 0);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(s.ok());
  std::vector<std::string> vars = {"y"};
  std::set<std::string> exact_set = TupleSet(*e, vars);
  std::set<std::string> sapper_set = TupleSet(*s, vars);
  for (const std::string& tuple : exact_set) {
    EXPECT_TRUE(sapper_set.count(tuple)) << "missing exact tuple";
  }
}

TEST_P(CrossSystemTest, BoundedIsSupersetOfExact) {
  DataGraph graph = RandomGraph(GetParam());
  QueryGraph q = QueryGraph::FromPatterns(RandomQuery(GetParam()),
                                          graph.shared_dict());
  ExactMatcher exact(&graph);
  BoundedMatcher bounded(&graph);
  auto e = exact.Execute(q, 0);
  auto b = bounded.Execute(q, 0);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(b.ok());
  std::vector<std::string> vars = {"y"};
  std::set<std::string> exact_set = TupleSet(*e, vars);
  std::set<std::string> bounded_set = TupleSet(*b, vars);
  for (const std::string& tuple : exact_set) {
    EXPECT_TRUE(bounded_set.count(tuple)) << "missing exact tuple";
  }
}

TEST_P(CrossSystemTest, SamaFindsExactAnswersAtLambdaZero) {
  DataGraph graph = RandomGraph(GetParam());
  std::vector<Triple> patterns = SampledQuery(graph, GetParam());
  ASSERT_FALSE(patterns.empty()) << "the graph has no edge";
  bool has_variable = false;
  for (const Triple& t : patterns) {
    has_variable = has_variable || t.subject.is_variable() ||
                   t.object.is_variable();
  }
  ASSERT_TRUE(has_variable) << "the sampled query is variable-free";
  QueryGraph q = QueryGraph::FromPatterns(patterns, graph.shared_dict());
  ExactMatcher exact(&graph);
  auto e = exact.Execute(q, 0);
  ASSERT_TRUE(e.ok());
  ASSERT_FALSE(e->empty());

  PathIndex index;
  ASSERT_TRUE(index.Build(graph, PathIndexOptions()).ok());
  SamaEngine engine(&graph, &index, nullptr);
  auto answers = engine.Execute(q, 0);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());

  // The sampled query starts at source constants, ends at a sink and
  // has an exact homomorphism, so some combination must align at Λ = 0.
  bool has_exact = false;
  for (const Answer& a : *answers) {
    if (a.lambda_total == 0.0) has_exact = true;
  }
  EXPECT_TRUE(has_exact);
}

TEST_P(CrossSystemTest, SamaScoresAreFiniteAndSorted) {
  DataGraph graph = RandomGraph(GetParam());
  QueryGraph q = QueryGraph::FromPatterns(RandomQuery(GetParam()),
                                          graph.shared_dict());
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, PathIndexOptions()).ok());
  SamaEngine engine(&graph, &index, nullptr);
  auto answers = engine.Execute(q, 20);
  ASSERT_TRUE(answers.ok());
  for (size_t i = 0; i < answers->size(); ++i) {
    const Answer& a = (*answers)[i];
    EXPECT_GE(a.score, 0.0);
    EXPECT_EQ(a.score, a.lambda_total + a.psi_total);
    if (i > 0) {
      EXPECT_LE((*answers)[i - 1].score, a.score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSystemTest,
                         testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace sama
