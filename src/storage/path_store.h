#ifndef SAMA_STORAGE_PATH_STORE_H_
#define SAMA_STORAGE_PATH_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/path.h"
#include "storage/record_store.h"

namespace sama {

using PathId = uint64_t;

// Persists enumerated source→sink paths (§6.1 step iii: "the paths
// ending into sinks ... bring information that might match the query").
// Each path serialises its node labels, edge labels and node ids.
// PathIds are dense (0..n-1); a translation table maps them to record
// ids in the underlying store.
class PathStore {
 public:
  struct Options {
    // Empty path = in-memory.
    std::string path;
    // truncate=false reopens an existing store (record table recovered
    // from the sidecar manifest written by Flush/Close).
    bool truncate = true;
    size_t buffer_pool_pages = 1024;
    // Varint encoding (on) vs fixed 4-byte ids (off); ablated in
    // bench_ablation. Must match the value the store was created with
    // when reopening.
    bool compress = true;
    // I/O seam for fault-injection tests; nullptr = Env::Default().
    Env* env = nullptr;
  };

  PathStore() = default;
  PathStore(const PathStore&) = delete;
  PathStore& operator=(const PathStore&) = delete;

  // Opens the store, dropping whatever an earlier Open of this object
  // loaded.
  Status Open(const Options& options);
  Status Close();

  // Appends `p`, returning its dense PathId.
  Result<PathId> Put(const Path& p);

  // Loads path `id`.
  Status Get(PathId id, Path* out) const;

  Status Flush();
  Status DropCaches();

  uint64_t path_count() const { return record_ids_.size(); }
  uint64_t size_bytes() const { return store_.size_bytes(); }
  BufferPool::Stats cache_stats() const { return store_.cache_stats(); }

  // Serialization, exposed for tests and the ablation bench.
  static void Encode(const Path& p, bool compress,
                     std::vector<uint8_t>* out);
  static Status Decode(const std::vector<uint8_t>& buf, bool compress,
                       Path* out);

 private:
  Status WriteManifest();

  RecordStore store_;
  std::vector<RecordId> record_ids_;  // PathId -> RecordId.
  std::string manifest_path_;
  bool compress_ = true;
  Env* env_ = nullptr;
};

}  // namespace sama

#endif  // SAMA_STORAGE_PATH_STORE_H_
