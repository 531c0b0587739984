// Quickstart: the paper's running example end to end.
//
// Builds the Figure-1 GovTrack excerpt, indexes its paths, and runs the
// exact query Q1 and the relaxed query Q2, printing the query path
// decomposition (§4.3), the clusters with their λ scores (Figure 3) and
// the ranked answers (§5).

#include <cstdio>

#include "core/clustering.h"
#include "core/engine.h"
#include "core/intersection_graph.h"
#include "datasets/govtrack.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace {

void PrintAnswers(const sama::DataGraph& graph,
                  const std::vector<sama::Answer>& answers) {
  for (size_t i = 0; i < answers.size(); ++i) {
    const sama::Answer& a = answers[i];
    std::printf("  #%zu score=%.2f (lambda=%.2f psi=%.2f)%s\n", i + 1,
                a.score, a.lambda_total, a.psi_total,
                a.consistent ? "" : "  [relaxed bindings]");
    for (const sama::ScoredPath& part : a.parts) {
      std::printf("      %-70s [%.2f]\n",
                  part.path->ToString(graph.dict()).c_str(),
                  part.lambda());
    }
  }
}

}  // namespace

int main() {
  // 1. Load the data graph Gd of Figure 1(a).
  sama::DataGraph graph =
      sama::DataGraph::FromTriples(sama::GovTrackFigure1Triples());
  std::printf("Data graph: %zu nodes, %zu edges, %zu sources, %zu sinks\n",
              graph.node_count(), graph.edge_count(),
              graph.Sources().size(), graph.Sinks().size());

  // 2. Offline phase: index every source→sink path (§6.1).
  sama::PathIndex index;
  sama::Status built = index.Build(graph, sama::PathIndexOptions());
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  std::printf("Indexed %llu paths\n\n",
              static_cast<unsigned long long>(index.path_count()));

  sama::Thesaurus thesaurus = sama::Thesaurus::BuiltinEnglish();
  sama::SamaEngine engine(&graph, &index, &thesaurus);

  // 3. Query Q1 (Figure 1b): decomposition into q1, q2, q3.
  sama::QueryGraph q1 =
      engine.BuildQueryGraph(sama::GovTrackQuery1Patterns());
  std::printf("Q1 decomposes into %zu paths:\n", q1.paths().size());
  for (const sama::Path& p : q1.paths()) {
    std::printf("  %s\n", p.ToString(q1.dict()).c_str());
  }

  // The clusters of Figure 3.
  auto clusters =
      sama::BuildClusters(q1, index, &thesaurus, sama::ScoreParams(),
                          sama::ClusteringOptions());
  if (clusters.ok()) {
    std::printf("\nClusters (Figure 3):\n");
    for (const sama::Cluster& c : *clusters) {
      std::printf("  cluster for %s\n",
                  q1.paths()[c.query_path_index].ToString(q1.dict())
                      .c_str());
      for (const sama::ScoredPath& sp : c.paths) {
        std::printf("    %-70s [%.2f]\n",
                    sp.path->ToString(graph.dict()).c_str(), sp.lambda());
      }
    }
  }

  // 4. Top-k answers for Q1: the first solution combines p1, p10, p20.
  auto answers1 = engine.Execute(q1, 3);
  if (answers1.ok()) {
    std::printf("\nTop-3 answers for Q1:\n");
    PrintAnswers(graph, *answers1);
  }

  // 5. The relaxed query Q2 (Figure 1c) has no exact answer, yet the
  // approximate engine still returns Q1's entities.
  sama::QueryGraph q2 =
      engine.BuildQueryGraph(sama::GovTrackQuery2Patterns());
  auto answers2 = engine.Execute(q2, 3);
  if (answers2.ok()) {
    std::printf("\nTop-3 answers for the relaxed Q2:\n");
    PrintAnswers(graph, *answers2);
  }
  return 0;
}
