#include "storage/record_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace sama {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Str(const std::vector<uint8_t>& v) {
  return std::string(v.begin(), v.end());
}

class RecordStoreTest : public testing::TestWithParam<bool> {
 protected:
  RecordStore::Options Opts() {
    RecordStore::Options o;
    if (GetParam()) {
      // Parameterized test names contain '/'; flatten for the file name.
      std::string name =
          testing::UnitTest::GetInstance()->current_test_info()->name();
      for (char& c : name) {
        if (c == '/') c = '-';
      }
      o.path = testing::TempDir() + "/rs_" + name + ".dat";
    }
    return o;
  }
};

TEST_P(RecordStoreTest, AppendReadRoundTrip) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Opts()).ok());
  auto id1 = store.Append(Bytes("hello"));
  ASSERT_TRUE(id1.ok());
  auto id2 = store.Append(Bytes("world!"));
  ASSERT_TRUE(id2.ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Read(*id1, &out).ok());
  EXPECT_EQ(Str(out), "hello");
  ASSERT_TRUE(store.Read(*id2, &out).ok());
  EXPECT_EQ(Str(out), "world!");
  EXPECT_EQ(store.record_count(), 2u);
}

TEST_P(RecordStoreTest, ManyRecordsAcrossPages) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Opts()).ok());
  std::vector<RecordId> ids;
  for (int i = 0; i < 2000; ++i) {
    auto id = store.Append(Bytes("record-" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::vector<uint8_t> out;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Read(ids[i], &out).ok());
    EXPECT_EQ(Str(out), "record-" + std::to_string(i));
  }
}

TEST_P(RecordStoreTest, EmptyRecordSupported) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Opts()).ok());
  auto id = store.Append({});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> out{1, 2, 3};
  ASSERT_TRUE(store.Read(*id, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(RecordStoreTest, FlushAndDropCachesPreserveData) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Opts()).ok());
  auto id = store.Append(Bytes("persistent"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.DropCaches().ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Read(*id, &out).ok());
  EXPECT_EQ(Str(out), "persistent");
}

INSTANTIATE_TEST_SUITE_P(DiskAndMemory, RecordStoreTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Disk" : "Memory";
                         });

// Opening a fresh (truncated) store on an object that held another
// store drops that store's records, in both backends.
TEST_P(RecordStoreTest, ReopenTruncatedStartsEmpty) {
  RecordStore store;
  ASSERT_TRUE(store.Open(Opts()).ok());
  ASSERT_TRUE(store.Append(Bytes("old")).ok());
  ASSERT_TRUE(store.Close().ok());
  ASSERT_TRUE(store.Open(Opts()).ok());
  EXPECT_EQ(store.record_count(), 0u);
  auto id = store.Append(Bytes("new"));
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Read(*id, &out).ok());
  EXPECT_EQ(Str(out), "new");
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(RecordStoreDiskTest, RecordTooLargeRejected) {
  RecordStore store;
  RecordStore::Options o;
  o.path = testing::TempDir() + "/rs_big.dat";
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<uint8_t> big(kPageSize, 0x1);
  EXPECT_EQ(store.Append(big).status().code(),
            Status::Code::kInvalidArgument);
  // Memory backend has no page limit.
  RecordStore mem;
  ASSERT_TRUE(mem.Open(RecordStore::Options()).ok());
  EXPECT_TRUE(mem.Append(big).ok());
}

TEST(RecordStoreDiskTest, CacheStatsExposed) {
  RecordStore store;
  RecordStore::Options o;
  o.path = testing::TempDir() + "/rs_stats.dat";
  o.buffer_pool_pages = 2;
  ASSERT_TRUE(store.Open(o).ok());
  auto id = store.Append(Bytes("x"));
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Read(*id, &out).ok());
  EXPECT_GT(store.cache_stats().hits + store.cache_stats().misses, 0u);
}

TEST(RecordStoreDiskTest, SizeBytesReflectsPages) {
  RecordStore store;
  RecordStore::Options o;
  o.path = testing::TempDir() + "/rs_size.dat";
  ASSERT_TRUE(store.Open(o).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Append(std::vector<uint8_t>(1000, 0x2)).ok());
  }
  // 100 KB of payload needs at least 25 pages.
  EXPECT_GE(store.size_bytes(), 25 * kPageSize);
}

TEST(RecordStoreMemoryTest, ConcurrentReadersShareTheLockWithOneAppender) {
  // Memory-backend reads take the shared side of the store's
  // shared_mutex: many readers proceed in parallel, serializing only
  // against Append (the backing vector reallocates). Readers chase the
  // appender's published high-water mark; every published record must
  // read back exactly, under ASan/TSan in the sanitizer tiers.
  RecordStore store;
  ASSERT_TRUE(store.Open(RecordStore::Options()).ok());

  constexpr uint64_t kRecords = 2000;
  constexpr int kReaders = 4;
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> violations{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (r + 1);
      std::vector<uint8_t> buf;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t id = (state >> 33) % n;
        if (!store.Read(id, &buf).ok() ||
            Str(buf) != "record-" + std::to_string(id)) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t i = 0; i < kRecords; ++i) {
    auto id = store.Append(Bytes("record-" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, i);  // Memory backend: ids are dense indices.
    published.store(i + 1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(store.record_count(), kRecords);
}

}  // namespace
}  // namespace sama
