#ifndef SAMA_SHARD_SHARDED_ENGINE_H_
#define SAMA_SHARD_SHARDED_ENGINE_H_

#include "core/engine.h"
#include "shard/sharded_index.h"

namespace sama {

// A SamaEngine over a ShardedIndex (DESIGN.md §14). Each live shard is
// one index slice: a query clusters against every shard's PathIndex,
// rewrites the shard-local path ids to global ids, merges the clusters
// into the single-index candidate lists by (λ, global id) and runs one
// forest search over them. The search sees exactly the clusters a
// single-index engine would build, so answers — scores, tie order and
// global path ids — are byte-identical to a single-index run with the
// same options, for any shard count, thread count and budget,
// truncated queries included. Everything else (instruments, tracing,
// profiles, the slow-query log, the per-request QueryContext) is the
// engine's own.
//
// Degraded shards (ShardedIndex::Open non-strict) contribute no slice:
// their paths never enter the clusters, the remaining shards still
// answer deterministically, and the loss is visible in
// QueryStats::shards_degraded and the sama_shard_degraded gauge.
//
// Sharded indexes are read-only: EnableUpdates refuses a sharded
// engine, so a server over one answers UPDATE with kReadOnly. Rebuild
// the shards to change the data.
class ShardedEngine : public SamaEngine {
 public:
  // All pointers borrowed; must outlive the engine. `index` must be
  // ShardedIndex::Open()ed over `graph`.
  ShardedEngine(const DataGraph* graph, const ShardedIndex* index,
                const Thesaurus* thesaurus, EngineOptions options = {});
};

}  // namespace sama

#endif  // SAMA_SHARD_SHARDED_ENGINE_H_
