#include "shard/sharded_engine.h"

#include <utility>
#include <vector>

namespace sama {

namespace {

std::vector<IndexSlice> LiveSlices(const ShardedIndex& index) {
  std::vector<IndexSlice> slices;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    if (index.shard_degraded(s)) continue;
    slices.push_back(IndexSlice{index.shard(s), &index.global_ids(s), s});
  }
  return slices;
}

}  // namespace

ShardedEngine::ShardedEngine(const DataGraph* graph, const ShardedIndex* index,
                             const Thesaurus* thesaurus, EngineOptions options)
    : SamaEngine(graph, LiveSlices(*index), index->degraded_shards(),
                 thesaurus, std::move(options)) {
  const ObsOptions& obs = this->options().obs;
  if (obs.metrics) {
    MetricsRegistry* reg =
        obs.registry != nullptr ? obs.registry : MetricsRegistry::Global();
    reg->GetGauge("sama_shard_degraded",
                  "Shards currently unusable (damaged index/sidecar).")
        ->Set(static_cast<double>(index->degraded_shards()));
  }
}

}  // namespace sama
