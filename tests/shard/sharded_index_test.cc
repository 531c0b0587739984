// Sharded index build/open: the assembled global id space must be a
// bijection onto the single-index id space, sidecars must reject
// mismatched graphs, and damaged shards must degrade (non-strict) or
// fail (strict) — never silently mix.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datasets/lubm.h"
#include "graph/data_graph.h"
#include "index/path_index.h"
#include "shard/sharded_index.h"

namespace sama {
namespace {

// Removes base/shard-*/files, base/shard-* and base/* — the fixed
// two-level shape of a sharded index dir.
void RemoveTree(const std::string& base) {
  Env* env = Env::Default();
  auto entries = env->ListDir(base);
  if (!entries.ok()) return;
  for (const std::string& name : *entries) {
    std::string path = base + "/" + name;
    auto sub = env->ListDir(path);
    if (sub.ok()) {
      for (const std::string& inner : *sub) {
        env->RemoveFile(path + "/" + inner).ok();
      }
      env->RemoveDir(path).ok();
    } else {
      env->RemoveFile(path).ok();
    }
  }
  env->RemoveDir(base).ok();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/sharded_" + name;
  RemoveTree(dir);
  return dir;
}

class ShardedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LubmConfig config;
    config.universities = 1;
    graph_ = DataGraph::FromTriples(GenerateLubm(config));
  }
  DataGraph graph_;
};

TEST_F(ShardedIndexTest, GlobalIdsReproduceTheSingleIndexSpace) {
  PathIndex single;
  ASSERT_TRUE(single.Build(graph_, PathIndexOptions()).ok());

  std::string dir = FreshDir("ids");
  ShardedIndexOptions options;
  options.num_shards = 3;
  ShardBuildReport report;
  ASSERT_TRUE(BuildShardedIndex(graph_, dir, options, &report).ok());
  EXPECT_EQ(report.total_paths, single.path_count());
  EXPECT_TRUE(IsShardedIndexDir(dir));

  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Open(&graph_, dir, /*strict=*/true).ok());
  ASSERT_EQ(sharded.num_shards(), 3u);
  EXPECT_EQ(sharded.degraded_shards(), 0u);
  EXPECT_EQ(sharded.total_paths(), single.path_count());

  // Every global id owned exactly once, and the local→global map is
  // strictly increasing (the monotone-enumeration property).
  std::vector<int> owned(sharded.total_paths(), 0);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    ASSERT_NE(sharded.shard(s), nullptr);
    uint64_t count = sharded.shard(s)->path_count();
    for (uint64_t local = 0; local < count; ++local) {
      PathId g = sharded.global_ids(s)[local];
      ASSERT_LT(g, sharded.total_paths());
      ++owned[g];
      EXPECT_EQ(sharded.OwnerOf(g), s);
      if (local > 0) {
        EXPECT_GT(g, sharded.global_ids(s)[local - 1]);
      }
    }
  }
  for (uint64_t g = 0; g < sharded.total_paths(); ++g) {
    EXPECT_EQ(owned[g], 1) << "global id " << g;
  }

  // A shard's path `local` must be byte-identical to the single
  // index's path global_ids(s)[local].
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    uint64_t count = sharded.shard(s)->path_count();
    for (uint64_t local = 0; local < count; local += 7) {
      std::shared_ptr<const Path> from_shard, from_single;
      ASSERT_TRUE(sharded.shard(s)->GetPath(local, &from_shard).ok());
      ASSERT_TRUE(
          single.GetPath(sharded.global_ids(s)[local], &from_single).ok());
      EXPECT_EQ(from_shard->ToString(graph_.dict()),
                from_single->ToString(graph_.dict()));
    }
  }
}

TEST_F(ShardedIndexTest, OpenRejectsTheWrongGraph) {
  std::string dir = FreshDir("wrong_graph");
  ShardedIndexOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph_, dir, options).ok());

  LubmConfig other_config;
  other_config.universities = 1;
  other_config.seed = 99;
  DataGraph other = DataGraph::FromTriples(GenerateLubm(other_config));
  ShardedIndex sharded;
  Status st = sharded.Open(&other, dir, /*strict=*/false);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST_F(ShardedIndexTest, MissingMetaIsNotFound) {
  ShardedIndex sharded;
  Status st =
      sharded.Open(&graph_, FreshDir("missing"), /*strict=*/false);
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  EXPECT_FALSE(IsShardedIndexDir(FreshDir("missing")));
}

TEST_F(ShardedIndexTest, DamagedShardMapDegradesOrFails) {
  std::string dir = FreshDir("damaged_map");
  ShardedIndexOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph_, dir, options).ok());
  // Garbage over shard 1's id map: the shard index itself still opens,
  // but its ids can no longer be trusted.
  std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(Env::Default()
                  ->WriteFileBytes(dir + "/shard-0001/shard.map", garbage)
                  .ok());

  ShardedIndex strict;
  EXPECT_FALSE(strict.Open(&graph_, dir, /*strict=*/true).ok());

  ShardedIndex lax;
  ASSERT_TRUE(lax.Open(&graph_, dir, /*strict=*/false).ok());
  EXPECT_EQ(lax.degraded_shards(), 1u);
  EXPECT_TRUE(lax.shard_degraded(1));
  EXPECT_EQ(lax.shard(1), nullptr);
  ASSERT_NE(lax.shard(0), nullptr);
  // Shard 0's ids resolve; the degraded shard's ids resolve to the
  // "unowned" sentinel.
  EXPECT_EQ(lax.OwnerOf(lax.global_ids(0)[0]), 0u);
  size_t unowned = 0;
  for (uint64_t g = 0; g < lax.total_paths(); ++g) {
    if (lax.OwnerOf(g) == lax.num_shards()) ++unowned;
  }
  EXPECT_EQ(unowned, lax.total_paths() - lax.shard(0)->path_count());
}

TEST_F(ShardedIndexTest, DamagedShardIndexDegrades) {
  std::string dir = FreshDir("damaged_index");
  ShardedIndexOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph_, dir, options).ok());
  ASSERT_TRUE(Env::Default()->RemoveFile(dir + "/shard-0000/index.meta").ok());

  ShardedIndex strict;
  EXPECT_FALSE(strict.Open(&graph_, dir, /*strict=*/true).ok());

  ShardedIndex lax;
  ASSERT_TRUE(lax.Open(&graph_, dir, /*strict=*/false).ok());
  EXPECT_EQ(lax.degraded_shards(), 1u);
  EXPECT_TRUE(lax.shard_degraded(0));
}

TEST_F(ShardedIndexTest, EveryShardDamagedFailsOutright) {
  std::string dir = FreshDir("all_damaged");
  ShardedIndexOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(BuildShardedIndex(graph_, dir, options).ok());
  ASSERT_TRUE(Env::Default()->RemoveFile(dir + "/shard-0000/index.meta").ok());
  ASSERT_TRUE(Env::Default()->RemoveFile(dir + "/shard-0001/index.meta").ok());
  ShardedIndex lax;
  EXPECT_FALSE(lax.Open(&graph_, dir, /*strict=*/false).ok());
}

TEST_F(ShardedIndexTest, MaxPathsCapIsRejected) {
  ShardedIndexOptions options;
  options.num_shards = 2;
  options.enumerate.max_paths = 100;
  Status st = BuildShardedIndex(graph_, FreshDir("cap"), options);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace sama
