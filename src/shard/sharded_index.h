#ifndef SAMA_SHARD_SHARDED_INDEX_H_
#define SAMA_SHARD_SHARDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "shard/partition.h"

namespace sama {

// A sharded index is N ordinary PathIndex directories under one base
// dir (base/shard-0000, base/shard-0001, ...), each built over the
// FULL graph but enumerating only the paths whose start node the shard
// owns (PartitionGraph), plus two sidecars:
//
//   base/sharding.meta   — shard count, graph fingerprint, partition
//                          stats, per-shard path counts.
//   shard-NNNN/shard.map — the shard's local→global PathId map
//                          (delta-coded; strictly increasing).
//
// Global ids are the positions the shard's paths occupy in the
// UNFILTERED single-index enumeration: every start is owned by exactly
// one shard, per-start emission order is identical filtered or not, so
// prefix sums of the per-start path counts (gathered from the shard
// builds themselves) reproduce the single-index id space exactly. That
// identity is what lets ShardedEngine cluster against each live shard
// as one index slice and merge the slices' clusters into byte-identical
// single-index candidate lists (DESIGN.md §14).
//
// Shard dirs are read-only at query time; the live-update path
// (EnableUpdates) does not apply to sharded indexes — rebuild to
// change the data.
struct ShardedIndexOptions {
  size_t num_shards = 2;
  size_t buffer_pool_pages = 4096;  // Per shard.
  size_t num_threads = 1;
  // enumerate.max_paths must stay 0: a global truncation cap has no
  // coherent per-shard restriction (PathIndexOptions::start_mask).
  PathEnumeratorOptions enumerate;
  // Per-shard hypergraph stores are off by default: the query path
  // never reads them and N copies of the vertex set are pure build
  // cost. Flip on for Table-1 style offline stats.
  bool build_hypergraph = false;
  Env* env = nullptr;
};

struct ShardBuildReport {
  size_t num_shards = 0;
  size_t num_components = 0;
  uint64_t cut_edges = 0;
  uint64_t total_paths = 0;
  std::vector<uint64_t> shard_paths;
};

// Partitions `graph`, builds every shard index under `base_dir`, and
// commits the sidecars. The meta file is written last, so a build that
// dies partway is invisible to ShardedIndex::Open (kNotFound).
Status BuildShardedIndex(const DataGraph& graph, const std::string& base_dir,
                         const ShardedIndexOptions& options,
                         ShardBuildReport* report = nullptr);

// True when `base_dir` holds a committed sharded build — how the CLI
// decides between PathIndex::Open and ShardedIndex::Open.
bool IsShardedIndexDir(const std::string& base_dir, Env* env = nullptr);

class ShardedIndex {
 public:
  ShardedIndex() = default;
  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  // Opens every shard under `base_dir` over `graph` (which must be the
  // graph the shards were built from — fingerprint-checked). With
  // `strict` set any damaged shard fails the open; otherwise damaged
  // shards are marked degraded and queries run over the survivors —
  // deterministically, with the loss visible in degraded_shards() and
  // the sama_shard_degraded gauge, mirroring the engine's degraded
  // read policy (DESIGN.md §5).
  Status Open(const DataGraph* graph, const std::string& base_dir,
              bool strict, size_t buffer_pool_pages = 4096,
              Env* env = nullptr);

  size_t num_shards() const { return shards_.size(); }
  size_t degraded_shards() const { return degraded_count_; }
  bool shard_degraded(size_t s) const { return shards_[s].index == nullptr; }
  // Null when the shard is degraded.
  const PathIndex* shard(size_t s) const { return shards_[s].index.get(); }

  // Local→global id translation for shard `s`, indexed by the local
  // ids of its PathIndex; empty when the shard is degraded.
  const std::vector<PathId>& global_ids(size_t s) const {
    return shards_[s].global_ids;
  }
  // The shard owning a global path id; num_shards() when the id
  // belongs to a degraded (unopened) shard.
  uint32_t OwnerOf(PathId global) const {
    return global < owner_of_.size()
               ? owner_of_[global]
               : static_cast<uint32_t>(shards_.size());
  }

  uint64_t total_paths() const { return total_paths_; }
  size_t num_components() const { return num_components_; }
  uint64_t cut_edges() const { return cut_edges_; }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Shard {
    std::unique_ptr<PathIndex> index;  // Null = degraded.
    std::vector<PathId> global_ids;    // Indexed by local id.
  };
  std::vector<Shard> shards_;
  std::vector<uint32_t> owner_of_;  // Indexed by global id.
  uint64_t total_paths_ = 0;
  size_t num_components_ = 0;
  uint64_t cut_edges_ = 0;
  uint64_t fingerprint_ = 0;
  size_t degraded_count_ = 0;
};

}  // namespace sama

#endif  // SAMA_SHARD_SHARDED_INDEX_H_
