// Index explorer: the disk-oriented side of the system (§6.1).
//
// Builds an on-disk index (page file + buffer pool + hypergraph store)
// for a Berlin-like dataset, prints Table-1-style statistics, and shows
// the cold-cache vs warm-cache difference the paper measures in
// Figure 6 by timing the same lookup before and after the page cache
// warms up.

#include <cstdio>
#include <filesystem>

#include "common/string_util.h"
#include "common/timer.h"
#include "datasets/berlin.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

int main() {
  sama::BerlinConfig config;
  config.products = 400;
  sama::DataGraph graph =
      sama::DataGraph::FromTriples(sama::GenerateBerlin(config));

  std::string dir =
      (std::filesystem::temp_directory_path() / "sama_index_explorer")
          .string();
  std::filesystem::create_directories(dir);

  sama::PathIndexOptions options;
  options.dir = dir;
  options.buffer_pool_pages = 64;  // Small cache: evictions visible.
  sama::PathIndex index;
  sama::Status built = index.Build(graph, options);
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }

  const sama::IndexStats& stats = index.stats();
  std::printf("Table-1-style statistics for this dataset:\n");
  std::printf("  #Triples  %llu\n",
              static_cast<unsigned long long>(stats.num_triples));
  std::printf("  |HV|      %llu\n",
              static_cast<unsigned long long>(stats.hv));
  std::printf("  |HE|      %llu\n",
              static_cast<unsigned long long>(stats.he));
  std::printf("  paths     %llu\n",
              static_cast<unsigned long long>(stats.num_paths));
  std::printf("  t         %s\n",
              sama::HumanMillis(stats.build_millis).c_str());
  std::printf("  space     %s\n",
              sama::HumanBytes(stats.disk_bytes).c_str());

  // Cold vs warm lookups of every stored path.
  auto scan_all = [&index]() {
    std::shared_ptr<const sama::Path> p;
    for (sama::PathId id = 0; id < index.path_count(); ++id) {
      if (!index.GetPath(id, &p).ok()) return false;
    }
    return true;
  };

  if (!index.DropCaches().ok()) return 1;
  sama::WallTimer cold;
  if (!scan_all()) return 1;
  double cold_ms = cold.ElapsedMillis();

  sama::WallTimer warm;
  if (!scan_all()) return 1;
  double warm_ms = warm.ElapsedMillis();

  sama::BufferPool::Stats cache = index.cache_stats();
  std::printf("\nScanning %llu paths through the buffer pool:\n",
              static_cast<unsigned long long>(index.path_count()));
  std::printf("  cold cache: %8.2f ms\n", cold_ms);
  std::printf("  warm cache: %8.2f ms\n", warm_ms);
  std::printf("  hit rate  : %5.1f%% (%llu hits / %llu misses)\n",
              100.0 * cache.HitRate(),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  std::printf("\nIndex files live in %s\n", dir.c_str());
  return 0;
}
