#include "shard/sharded_index.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "storage/coding.h"
#include "storage/manifest.h"

namespace sama {

namespace {

constexpr char kMetaFile[] = "sharding.meta";
constexpr char kShardMapFile[] = "shard.map";
// 'S','H','A','R','D',version — both sidecars share the magic and bump
// the trailing byte together.
constexpr uint64_t kSidecarMagic = 0x5348415244ull << 8 | 1;

std::string ShardDir(const std::string& base_dir, size_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", s);
  return base_dir + "/" + buf;
}

// sharding.meta payload: magic, num_shards, fingerprint, total_paths,
// num_components, cut_edges, then one path count per shard.
std::vector<uint8_t> EncodeMeta(const GraphPartition& partition,
                                uint64_t fingerprint, uint64_t total_paths,
                                const std::vector<uint64_t>& shard_paths) {
  std::vector<uint8_t> blob;
  PutVarint64(&blob, kSidecarMagic);
  PutVarint64(&blob, partition.num_shards);
  PutVarint64(&blob, fingerprint);
  PutVarint64(&blob, total_paths);
  PutVarint64(&blob, partition.num_components);
  PutVarint64(&blob, partition.cut_edges);
  for (uint64_t c : shard_paths) PutVarint64(&blob, c);
  return blob;
}

// shard.map payload: magic, num_shards, shard_id, fingerprint, count,
// then the global ids delta-coded (first id, then gaps). The ids of one
// shard are strictly increasing — prefix-sum construction — so every
// gap is >= 1 and encoded as gap - 1.
std::vector<uint8_t> EncodeShardMap(size_t num_shards, size_t shard_id,
                                    uint64_t fingerprint,
                                    const std::vector<PathId>& global_ids) {
  std::vector<uint8_t> blob;
  PutVarint64(&blob, kSidecarMagic);
  PutVarint64(&blob, num_shards);
  PutVarint64(&blob, shard_id);
  PutVarint64(&blob, fingerprint);
  PutVarint64(&blob, global_ids.size());
  PathId prev = 0;
  for (size_t i = 0; i < global_ids.size(); ++i) {
    if (i == 0) {
      PutVarint64(&blob, global_ids[0]);
    } else {
      PutVarint64(&blob, global_ids[i] - prev - 1);
    }
    prev = global_ids[i];
  }
  return blob;
}

Status DecodeShardMap(const std::vector<uint8_t>& blob, size_t num_shards,
                      size_t shard_id, uint64_t fingerprint,
                      std::vector<PathId>* out) {
  size_t pos = 0;
  uint64_t magic = 0, shards = 0, sid = 0, fp = 0, count = 0;
  if (!GetVarint64(blob, &pos, &magic) || magic != kSidecarMagic) {
    return Status::Corruption("shard.map: bad magic");
  }
  if (!GetVarint64(blob, &pos, &shards) || shards != num_shards ||
      !GetVarint64(blob, &pos, &sid) || sid != shard_id) {
    return Status::Corruption("shard.map: wrong shard identity");
  }
  if (!GetVarint64(blob, &pos, &fp) || fp != fingerprint) {
    return Status::Corruption("shard.map: graph fingerprint mismatch");
  }
  if (!GetVarint64(blob, &pos, &count)) {
    return Status::Corruption("shard.map: truncated count");
  }
  out->clear();
  out->reserve(count);
  PathId prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    if (!GetVarint64(blob, &pos, &v)) {
      return Status::Corruption("shard.map: truncated id list");
    }
    PathId id = i == 0 ? v : prev + v + 1;
    out->push_back(id);
    prev = id;
  }
  if (pos != blob.size()) {
    return Status::Corruption("shard.map: trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Status BuildShardedIndex(const DataGraph& graph, const std::string& base_dir,
                         const ShardedIndexOptions& options,
                         ShardBuildReport* report) {
  if (base_dir.empty()) {
    return Status::InvalidArgument("BuildShardedIndex: base_dir required");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("BuildShardedIndex: num_shards must be >= 1");
  }
  if (options.enumerate.max_paths != 0) {
    return Status::InvalidArgument(
        "BuildShardedIndex: enumerate.max_paths must be 0 (a global "
        "truncation cap has no coherent per-shard restriction)");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  SAMA_RETURN_IF_ERROR(env->CreateDir(base_dir));

  const GraphPartition partition = PartitionGraph(graph, options.num_shards);
  const uint64_t fingerprint = PathIndex::GraphFingerprint(graph);
  const std::vector<NodeId> starts = graph.StartNodes();

  // Per-shard filtered builds, one at a time (each build parallelises
  // internally with options.num_threads). The per-start counts each
  // build reports are the raw material of the global id space.
  std::vector<std::vector<std::pair<NodeId, uint64_t>>> counts(
      partition.num_shards);
  std::vector<uint64_t> shard_paths(partition.num_shards, 0);
  std::vector<uint8_t> mask(graph.node_count(), 0);
  for (size_t s = 0; s < partition.num_shards; ++s) {
    mask.assign(graph.node_count(), 0);
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      if (partition.shard_of_node[v] == s) mask[v] = 1;
    }
    PathIndexOptions pio;
    pio.dir = ShardDir(base_dir, s);
    pio.buffer_pool_pages = options.buffer_pool_pages;
    pio.num_threads = options.num_threads;
    pio.enumerate = options.enumerate;
    pio.build_hypergraph = options.build_hypergraph;
    pio.env = env;
    pio.start_mask = &mask;
    pio.per_start_counts = &counts[s];
    PathIndex index;
    SAMA_RETURN_IF_ERROR(index.Build(graph, pio));
    shard_paths[s] = index.path_count();
  }

  // Global ids: walk the UNFILTERED start order; each start's paths are
  // the next contiguous block, owned by the start's shard. The counts
  // come from the shard builds themselves, so the assembled space is
  // exactly the single-index enumeration.
  std::vector<std::vector<PathId>> global_ids(partition.num_shards);
  std::vector<size_t> cursor(partition.num_shards, 0);
  uint64_t next_global = 0;
  for (NodeId start : starts) {
    const size_t s = partition.ShardOfNode(start);
    std::vector<std::pair<NodeId, uint64_t>>& shard_counts = counts[s];
    if (cursor[s] >= shard_counts.size() ||
        shard_counts[cursor[s]].first != start) {
      return Status::Internal(
          "BuildShardedIndex: per-start counts out of sync with the "
          "unfiltered start order");
    }
    const uint64_t n = shard_counts[cursor[s]++].second;
    for (uint64_t i = 0; i < n; ++i) {
      global_ids[s].push_back(next_global++);
    }
  }
  for (size_t s = 0; s < partition.num_shards; ++s) {
    if (cursor[s] != counts[s].size() ||
        global_ids[s].size() != shard_paths[s]) {
      return Status::Internal(
          "BuildShardedIndex: shard path count disagrees with its "
          "per-start counts");
    }
  }

  for (size_t s = 0; s < partition.num_shards; ++s) {
    SAMA_RETURN_IF_ERROR(
        WriteBlobFile(ShardDir(base_dir, s) + "/" + kShardMapFile,
                      EncodeShardMap(partition.num_shards, s, fingerprint,
                                     global_ids[s]),
                      env));
  }
  // The meta write is the commit point: without it Open reports
  // kNotFound and a half-finished build is invisible.
  SAMA_RETURN_IF_ERROR(WriteBlobFile(
      base_dir + "/" + kMetaFile,
      EncodeMeta(partition, fingerprint, next_global, shard_paths), env));

  if (report != nullptr) {
    report->num_shards = partition.num_shards;
    report->num_components = partition.num_components;
    report->cut_edges = partition.cut_edges;
    report->total_paths = next_global;
    report->shard_paths = shard_paths;
  }
  return Status::Ok();
}

bool IsShardedIndexDir(const std::string& base_dir, Env* env) {
  if (base_dir.empty()) return false;
  Env* e = env != nullptr ? env : Env::Default();
  return e->FileExists(base_dir + "/" + kMetaFile);
}

Status ShardedIndex::Open(const DataGraph* graph, const std::string& base_dir,
                          bool strict, size_t buffer_pool_pages, Env* env) {
  if (graph == nullptr || base_dir.empty()) {
    return Status::InvalidArgument("ShardedIndex::Open: graph and base_dir required");
  }
  Env* e = env != nullptr ? env : Env::Default();
  if (!e->FileExists(base_dir + "/" + kMetaFile)) {
    return Status::NotFound("no committed sharded index at " + base_dir);
  }
  SAMA_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                        ReadBlobFile(base_dir + "/" + kMetaFile, e));
  size_t pos = 0;
  uint64_t magic = 0, num_shards = 0;
  uint64_t num_components = 0, cut_edges = 0;
  if (!GetVarint64(blob, &pos, &magic) || magic != kSidecarMagic ||
      !GetVarint64(blob, &pos, &num_shards) || num_shards == 0 ||
      !GetVarint64(blob, &pos, &fingerprint_) ||
      !GetVarint64(blob, &pos, &total_paths_) ||
      !GetVarint64(blob, &pos, &num_components) ||
      !GetVarint64(blob, &pos, &cut_edges)) {
    return Status::Corruption("sharding.meta: malformed header");
  }
  num_components_ = num_components;
  cut_edges_ = cut_edges;
  std::vector<uint64_t> shard_paths(num_shards, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    if (!GetVarint64(blob, &pos, &shard_paths[s])) {
      return Status::Corruption("sharding.meta: truncated shard counts");
    }
  }
  const uint64_t expected = PathIndex::GraphFingerprint(*graph);
  if (fingerprint_ != expected) {
    return Status::InvalidArgument(
        "ShardedIndex::Open: graph fingerprint mismatch (index built over "
        "a different graph)");
  }

  shards_.clear();
  shards_.resize(num_shards);
  degraded_count_ = 0;
  owner_of_.assign(total_paths_, static_cast<uint32_t>(num_shards));
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string dir = ShardDir(base_dir, s);
    auto degrade = [&](const Status& why) -> Status {
      if (strict) {
        return Status::Corruption("shard " + std::to_string(s) +
                                  " unusable: " + why.message());
      }
      shards_[s].index.reset();
      shards_[s].global_ids.clear();
      ++degraded_count_;
      return Status::Ok();
    };
    auto index = std::make_unique<PathIndex>();
    PathIndexOptions pio;
    pio.dir = dir;
    pio.buffer_pool_pages = buffer_pool_pages;
    // Shard builds skip the hypergraph store by default
    // (ShardedIndexOptions::build_hypergraph); probe rather than guess
    // so both build flavours reopen.
    pio.build_hypergraph = e->FileExists(dir + "/hypergraph.dat");
    pio.env = e;
    // PathIndex::Open replays the shard's update journal into the
    // graph; sharded shards are read-only so the journal is empty and
    // the graph stays byte-identical across the N opens.
    Status st = index->Open(const_cast<DataGraph*>(graph), pio);
    if (!st.ok()) {
      SAMA_RETURN_IF_ERROR(degrade(st));
      continue;
    }
    std::vector<PathId> ids;
    auto map_or = ReadBlobFile(dir + "/" + kShardMapFile, e);
    st = map_or.ok() ? DecodeShardMap(map_or.value(), num_shards, s,
                                      fingerprint_, &ids)
                     : map_or.status();
    if (st.ok() && ids.size() != index->path_count()) {
      st = Status::Corruption("shard.map id count disagrees with the shard "
                              "index path count");
    }
    if (st.ok() && ids.size() != shard_paths[s]) {
      st = Status::Corruption("shard.map id count disagrees with sharding.meta");
    }
    if (!st.ok()) {
      SAMA_RETURN_IF_ERROR(degrade(st));
      continue;
    }
    for (PathId g : ids) {
      if (g >= total_paths_ ||
          owner_of_[g] != static_cast<uint32_t>(num_shards)) {
        return Status::Corruption("shard.map: global id " + std::to_string(g) +
                                  " out of range or doubly owned");
      }
      owner_of_[g] = static_cast<uint32_t>(s);
    }
    shards_[s].index = std::move(index);
    shards_[s].global_ids = std::move(ids);
  }
  if (degraded_count_ == num_shards) {
    return Status::Corruption("ShardedIndex::Open: every shard is damaged");
  }
  return Status::Ok();
}

}  // namespace sama
