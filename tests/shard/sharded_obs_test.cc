// A sharded index runs through the one engine pipeline (DESIGN.md §14),
// so it reports exactly what a single index reports: the same sama_*
// series (plus the sharded-only sama_shard_degraded gauge), the
// slow-query log and the retained profiles.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "core/engine.h"
#include "datasets/govtrack.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "query/sparql.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

// The sama_* series in `registry`, by name and labels, without the
// gauge only a sharded engine registers.
std::set<std::string> EngineSeries(const MetricsRegistry& registry) {
  std::set<std::string> keys;
  for (const MetricSample& m : registry.Collect()) {
    if (m.name.rfind("sama_", 0) == 0 && m.name != "sama_shard_degraded") {
      keys.insert(m.Key());
    }
  }
  return keys;
}

TEST(ShardedEngineObsTest, ReportsTheSingleIndexInstruments) {
  DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
  Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
  PathIndex single_index;
  ASSERT_TRUE(single_index.Build(graph, PathIndexOptions()).ok());
  const std::string dir = testing::TempDir() + "/sharded_obs";
  std::filesystem::remove_all(dir);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph, dir, shard_options).ok());
  ShardedIndex sharded_index;
  ASSERT_TRUE(sharded_index.Open(&graph, dir, /*strict=*/true).ok());

  // Each engine on its own registry, profiling, and logging every query
  // as slow.
  auto options_for = [](MetricsRegistry* registry) {
    EngineOptions options;
    options.obs.registry = registry;
    options.obs.profile = true;
    options.obs.slow_query_millis = 1e-9;
    return options;
  };
  MetricsRegistry single_registry, sharded_registry;
  SamaEngine single(&graph, &single_index, &thesaurus,
                    options_for(&single_registry));
  ShardedEngine sharded(&graph, &sharded_index, &thesaurus,
                        options_for(&sharded_registry));

  auto parsed = ParseSparql(
      "PREFIX gov: <http://gov.example.org/>\n"
      "SELECT ?p WHERE { ?p gov:gender \"Male\" }");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto want = single.ExecuteSparql(*parsed, 10);
  ASSERT_TRUE(want.ok()) << want.status();
  QueryStats stats;
  auto got = sharded.ExecuteSparql(*parsed, 10, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->size(), want->size());

  const std::set<std::string> series = EngineSeries(single_registry);
  EXPECT_EQ(series.count("sama_query_latency_millis"), 1u);
  EXPECT_EQ(EngineSeries(sharded_registry), series);
  bool has_degraded_gauge = false;
  for (const MetricSample& m : sharded_registry.Collect()) {
    has_degraded_gauge = has_degraded_gauge || m.name == "sama_shard_degraded";
  }
  EXPECT_TRUE(has_degraded_gauge);

  ASSERT_NE(sharded.slow_query_log(), nullptr);
  EXPECT_EQ(sharded.slow_query_log()->total_recorded(), 1u);
  ASSERT_NE(sharded.profile_log(), nullptr);
  ASSERT_NE(stats.profile, nullptr);
  EXPECT_EQ(sharded.profile_log()->Latest(), stats.profile);
}

}  // namespace
}  // namespace sama
