#ifndef SAMA_STORAGE_RECORD_STORE_H_
#define SAMA_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace sama {

using RecordId = uint64_t;

// Append-only record log. Two backends share the API:
//  * disk: records packed into 4 KiB pages behind an LRU BufferPool —
//    the configuration every experiment uses ("the graph can only be
//    stored on disk", §6.1);
//  * memory: a plain heap vector, for unit tests and small examples.
//
// Records never span pages, so one record is limited to
// kPageDataSize - kMaxHeader bytes in the disk backend.
//
// Thread safety: writers (Append/Flush/DropCaches) serialise on the
// exclusive side of an internal shared_mutex. Disk-backend reads take
// no store-level lock at all — they ride the BufferPool's lock-free
// probe-and-pin protocol, so parallel query workers (clustering,
// forest search) fetch pages concurrently; memory-backend reads take
// the shared side only (the backing vector reallocates on Append, so
// they must exclude writers — but never each other).
class RecordStore {
 public:
  struct Options {
    // Empty path selects the in-memory backend.
    std::string path;
    // truncate=false reopens an existing store: the header page
    // (record count, tail position) is recovered and appends continue
    // where the last Flush() left off.
    bool truncate = true;
    size_t buffer_pool_pages = 1024;  // 4 MiB default cache.
    // I/O seam for fault-injection tests; nullptr = Env::Default().
    Env* env = nullptr;
  };

  RecordStore() = default;
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  // Opens the store, dropping whatever an earlier Open of this object
  // loaded.
  Status Open(const Options& options);
  Status Close();

  // Appends `data`; returns the record's id.
  Result<RecordId> Append(const std::vector<uint8_t>& data);

  // Reads record `id` into `out`.
  Status Read(RecordId id, std::vector<uint8_t>* out) const;

  // Persists buffered pages (no-op in memory).
  Status Flush();
  // Empties the page cache — the cold-cache lever (no-op in memory).
  Status DropCaches();

  uint64_t record_count() const { return record_count_; }
  // Bytes on disk (or heap bytes in the memory backend).
  uint64_t size_bytes() const;
  bool on_disk() const { return file_ != nullptr; }

  // Buffer pool statistics (zeros in the memory backend).
  BufferPool::Stats cache_stats() const;

 private:
  Status WriteStoreHeader();
  Status ReadStoreHeader();

  // Disk backend.
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  PageId tail_page_ = 0;
  size_t tail_offset_ = 0;

  // Memory backend.
  std::vector<std::vector<uint8_t>> mem_records_;

  // Writers exclusive; memory-backend readers shared.
  mutable std::shared_mutex mu_;
  uint64_t record_count_ = 0;
};

}  // namespace sama

#endif  // SAMA_STORAGE_RECORD_STORE_H_
