#include "storage/record_store.h"

#include <cstring>

namespace sama {
namespace {

// Per-record page header: a 2-byte little-endian length.
constexpr size_t kHeaderBytes = 2;
constexpr size_t kMaxRecordBytes = kPageDataSize - kHeaderBytes;

// Page 0 is the store header: magic, version, record count and tail
// position, refreshed on every Flush() so a clean shutdown can reopen.
constexpr char kMagic[8] = {'S', 'A', 'M', 'A', 'R', 'E', 'C', '1'};

RecordId MakeRecordId(PageId page, size_t offset) {
  return (static_cast<uint64_t>(page) << 16) | static_cast<uint64_t>(offset);
}

PageId RecordPage(RecordId id) { return static_cast<PageId>(id >> 16); }
size_t RecordOffset(RecordId id) { return static_cast<size_t>(id & 0xffff); }

void PutU64(uint8_t* buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t GetU64(const uint8_t* buf) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[i]) << (8 * i);
  return v;
}

}  // namespace

Status RecordStore::Open(const Options& options) {
  // Nothing an earlier Open loaded survives: a fresh or truncated file
  // starts empty, and an existing one reads its own header.
  pool_.reset();
  file_.reset();
  tail_page_ = 0;
  tail_offset_ = 0;
  mem_records_.clear();
  record_count_ = 0;
  if (options.path.empty()) return Status::Ok();  // Memory backend.
  file_ = std::make_unique<PageFile>();
  SAMA_RETURN_IF_ERROR(
      file_->Open(options.path, options.truncate, options.env));
  pool_ = std::make_unique<BufferPool>(file_.get(),
                                       options.buffer_pool_pages);
  if (file_->page_count() == 0) {
    // Fresh store: header page + first data page.
    auto header = file_->AllocatePage();
    if (!header.ok()) return header.status();
    auto page = file_->AllocatePage();
    if (!page.ok()) return page.status();
    tail_page_ = *page;
    tail_offset_ = 0;
    return WriteStoreHeader();
  }
  return ReadStoreHeader();
}

Status RecordStore::WriteStoreHeader() {
  if (pool_ == nullptr) return Status::Ok();
  auto buf_or = pool_->MutablePage(0);
  if (!buf_or.ok()) return buf_or.status();
  uint8_t* buf = buf_or->mutable_data();
  std::memcpy(buf, kMagic, sizeof(kMagic));
  PutU64(buf + 8, record_count_);
  PutU64(buf + 16, tail_page_);
  PutU64(buf + 24, tail_offset_);
  return Status::Ok();
}

Status RecordStore::ReadStoreHeader() {
  auto buf_or = pool_->Fetch(0);
  if (!buf_or.ok()) return buf_or.status();
  const uint8_t* buf = buf_or->data();
  if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("record store header magic mismatch");
  }
  record_count_ = GetU64(buf + 8);
  tail_page_ = static_cast<PageId>(GetU64(buf + 16));
  tail_offset_ = static_cast<size_t>(GetU64(buf + 24));
  if (tail_page_ >= file_->page_count() || tail_offset_ > kPageDataSize) {
    return Status::Corruption("record store tail out of range");
  }
  return Status::Ok();
}

Status RecordStore::Close() {
  if (file_ == nullptr) return Status::Ok();
  SAMA_RETURN_IF_ERROR(WriteStoreHeader());
  SAMA_RETURN_IF_ERROR(pool_->Flush());
  // A closed store must be durable: the index commit protocol renames
  // this file right after Close(), and rename-before-sync would let a
  // crash commit unsynced pages.
  SAMA_RETURN_IF_ERROR(file_->Sync());
  pool_.reset();
  Status s = file_->Close();
  file_.reset();
  return s;
}

Result<RecordId> RecordStore::Append(const std::vector<uint8_t>& data) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (file_ == nullptr) {
    RecordId id = mem_records_.size();
    mem_records_.push_back(data);
    ++record_count_;
    return id;
  }
  if (data.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("record exceeds page capacity (" +
                                   std::to_string(data.size()) + " bytes)");
  }
  if (tail_offset_ + kHeaderBytes + data.size() > kPageDataSize) {
    auto page = file_->AllocatePage();
    if (!page.ok()) return page.status();
    tail_page_ = *page;
    tail_offset_ = 0;
  }
  auto buf_or = pool_->MutablePage(tail_page_);
  if (!buf_or.ok()) return buf_or.status();
  uint8_t* buf = buf_or->mutable_data();
  size_t offset = tail_offset_;
  buf[offset] = static_cast<uint8_t>(data.size());
  buf[offset + 1] = static_cast<uint8_t>(data.size() >> 8);
  std::memcpy(buf + offset + kHeaderBytes, data.data(), data.size());
  tail_offset_ = offset + kHeaderBytes + data.size();
  ++record_count_;
  return MakeRecordId(tail_page_, offset);
}

Status RecordStore::Read(RecordId id, std::vector<uint8_t>* out) const {
  if (file_ == nullptr) {
    // The memory backend's vector reallocates on Append, so reads must
    // exclude writers — but not each other: the shared side lets any
    // number of readers copy records concurrently.
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (id >= mem_records_.size()) {
      return Status::OutOfRange("record " + std::to_string(id));
    }
    *out = mem_records_[id];
    return Status::Ok();
  }
  // Disk backend: no store-level lock. The buffer pool's latch+pin
  // protocol makes Fetch safe, and the guard keeps the frame resident
  // while we copy out of it — parallel query workers read concurrently.
  if (RecordPage(id) == 0) {
    return Status::InvalidArgument("record id points at the header page");
  }
  auto buf_or = pool_->Fetch(RecordPage(id));
  if (!buf_or.ok()) return buf_or.status();
  const uint8_t* buf = buf_or->data();
  size_t offset = RecordOffset(id);
  if (offset + kHeaderBytes > kPageDataSize) {
    return Status::Corruption("record offset out of page");
  }
  size_t length = static_cast<size_t>(buf[offset]) |
                  (static_cast<size_t>(buf[offset + 1]) << 8);
  if (offset + kHeaderBytes + length > kPageDataSize) {
    return Status::Corruption("record length out of page");
  }
  out->assign(buf + offset + kHeaderBytes,
              buf + offset + kHeaderBytes + length);
  return Status::Ok();
}

Status RecordStore::Flush() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (pool_ == nullptr) return Status::Ok();
  SAMA_RETURN_IF_ERROR(WriteStoreHeader());
  SAMA_RETURN_IF_ERROR(pool_->Flush());
  return file_->Sync();
}

Status RecordStore::DropCaches() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (pool_ == nullptr) return Status::Ok();
  SAMA_RETURN_IF_ERROR(WriteStoreHeader());
  return pool_->DropAll();
}

uint64_t RecordStore::size_bytes() const {
  if (file_ != nullptr) return file_->size_bytes();
  uint64_t bytes = 0;
  for (const auto& r : mem_records_) bytes += r.size() + sizeof(r);
  return bytes;
}

BufferPool::Stats RecordStore::cache_stats() const {
  if (pool_ == nullptr) return BufferPool::Stats();
  return pool_->stats();
}

}  // namespace sama
