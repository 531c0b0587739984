// Contended-read benchmark for the lock-free read paths (DESIGN.md
// §13): dictionary Find, sharded-cache Get and buffer-pool Fetch
// throughput at 1/4/16 threads, hit and miss mixes, plus dictionary
// reads raced against a live-update writer (the PR 7 ApplyUpdate
// path). The scaling claim under test: on a machine with >=8 hardware
// threads the warm hit paths must scale (16-thread throughput >= 3x
// single-thread), because no reader ever takes a lock.
//
// The exit status is the gate. Every scenario is gated on correctness
// before timing is believed: each read must return the exact value its
// key was published with (mismatches land in the summary and fail the
// run). On >= kScalingMinThreads hardware threads the run also fails
// when hit_scaling is below kMinHitScaling; on fewer cores the scaling
// cannot physically show, so the floor is not armed. --json=FILE writes
// the numbers as a JSON artifact.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/sharded_cache.h"
#include "core/engine.h"
#include "datasets/govtrack.h"
#include "index/path_index.h"
#include "rdf/dictionary.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "text/thesaurus.h"

namespace sama {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// The scaling floor and the core count it arms at.
constexpr double kMinHitScaling = 3.0;
constexpr unsigned kScalingMinThreads = 8;

struct Options {
  size_t ops_per_thread = 200000;  // Reads per thread per scenario.
  size_t dict_terms = 50000;       // Interned population.
  size_t cache_entries = 4096;     // Resident cache population.
  size_t pool_pages = 256;         // Resident page population.
  size_t update_inserts = 300;     // Live-update writer workload.
  uint64_t seed = 42;
  std::string json_path;
};

uint64_t NextRand(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

Term Gov(const std::string& local) {
  return Term::Iri("http://gov.example.org/" + local);
}

struct ScenarioResult {
  std::string name;
  size_t threads = 0;
  uint64_t ops = 0;
  double millis = 0;
  double ops_per_sec = 0;
  uint64_t mismatches = 0;
};

// Runs `fn(thread_ordinal, &mismatches)` on `threads` threads, each
// doing `ops_per_thread` reads, and times the whole storm.
ScenarioResult RunScenario(
    const std::string& name, size_t threads, size_t ops_per_thread,
    const std::function<void(int, size_t, std::atomic<uint64_t>*)>& fn) {
  ScenarioResult r;
  r.name = name;
  r.threads = threads;
  r.ops = static_cast<uint64_t>(threads) * ops_per_thread;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Clock::time_point t0 = Clock::now();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { fn(static_cast<int>(t), ops_per_thread, &mismatches); });
  }
  for (auto& w : workers) w.join();
  r.millis = MillisSince(t0);
  r.ops_per_sec = r.millis > 0 ? r.ops / (r.millis / 1000.0) : 0;
  r.mismatches = mismatches.load();
  std::fprintf(stderr, "  %-18s %2zu thread(s): %10.0f ops/s%s\n",
               name.c_str(), threads, r.ops_per_sec,
               r.mismatches ? "  MISMATCHES" : "");
  return r;
}

void WriteJson(const std::string& path, const Options& options,
               const std::vector<ScenarioResult>& results,
               double hit_scaling, uint64_t total_mismatches) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  auto one_thread_ops = [&](const char* name) {
    for (const ScenarioResult& r : results) {
      if (r.name == name && r.threads == 1) return r.ops_per_sec;
    }
    return 0.0;
  };
  std::fprintf(f,
               "{\n  \"bench\": \"readers\",\n  \"seed\": %llu,\n"
               "  \"summary\": {\n"
               "    \"hardware_threads\": %u,\n"
               "    \"mismatches\": %llu,\n"
               "    \"hit_scaling\": %.4f,\n"
               "    \"dict_hit_1t_ops\": %.2f,\n"
               "    \"dict_miss_1t_ops\": %.2f,\n"
               "    \"cache_hit_1t_ops\": %.2f,\n"
               "    \"cache_miss_1t_ops\": %.2f,\n"
               "    \"pool_hit_1t_ops\": %.2f,\n"
               "    \"dict_hit_with_updates_ops\": %.2f\n  },\n"
               "  \"queries\": [\n",
               static_cast<unsigned long long>(options.seed),
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(total_mismatches),
               FiniteOr(hit_scaling), FiniteOr(one_thread_ops("dict_hit")),
               FiniteOr(one_thread_ops("dict_miss")),
               FiniteOr(one_thread_ops("cache_hit")),
               FiniteOr(one_thread_ops("cache_miss")),
               FiniteOr(one_thread_ops("pool_hit")),
               FiniteOr([&] {
                 for (const ScenarioResult& r : results) {
                   if (r.name == "dict_hit_with_updates") return r.ops_per_sec;
                 }
                 return 0.0;
               }()));
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %zu, \"ops\": %llu, "
                 "\"millis\": %.3f, \"ops_per_sec\": %.2f, "
                 "\"mismatches\": %llu}%s\n",
                 r.name.c_str(), r.threads,
                 static_cast<unsigned long long>(r.ops), FiniteOr(r.millis),
                 FiniteOr(r.ops_per_sec),
                 static_cast<unsigned long long>(r.mismatches),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run(const Options& options) {
  const std::vector<size_t> kThreadCounts = {1, 4, 16};
  std::vector<ScenarioResult> results;

  // --- Dictionary: interned population, hit and miss probes. ---
  std::fprintf(stderr, "dictionary: interning %zu terms...\n",
               options.dict_terms);
  TermDictionary dict;
  for (size_t i = 0; i < options.dict_terms; ++i) {
    dict.Intern(Gov("t" + std::to_string(i)));
  }
  // Pre-built Term keys so the benchmark times Find, not string
  // concatenation. A shared read-only pool of 4096 probes per mix.
  std::vector<Term> hit_terms;
  std::vector<Term> miss_terms;
  std::vector<TermId> hit_ids;
  uint64_t state = options.seed;
  for (size_t i = 0; i < 4096; ++i) {
    size_t pick = NextRand(&state) % options.dict_terms;
    hit_terms.push_back(Gov("t" + std::to_string(pick)));
    hit_ids.push_back(static_cast<TermId>(pick));
    miss_terms.push_back(Gov("absent-" + std::to_string(NextRand(&state))));
  }
  for (size_t threads : kThreadCounts) {
    results.push_back(RunScenario(
        "dict_hit", threads, options.ops_per_thread,
        [&](int t, size_t ops, std::atomic<uint64_t>* bad) {
          uint64_t rng = options.seed + static_cast<uint64_t>(t) * 7919;
          uint64_t local_bad = 0;
          for (size_t i = 0; i < ops; ++i) {
            size_t k = NextRand(&rng) & 4095;
            if (dict.Find(hit_terms[k]) != hit_ids[k]) ++local_bad;
          }
          if (local_bad) bad->fetch_add(local_bad);
        }));
  }
  for (size_t threads : kThreadCounts) {
    results.push_back(RunScenario(
        "dict_miss", threads, options.ops_per_thread,
        [&](int t, size_t ops, std::atomic<uint64_t>* bad) {
          uint64_t rng = options.seed + static_cast<uint64_t>(t) * 104729;
          uint64_t local_bad = 0;
          for (size_t i = 0; i < ops; ++i) {
            size_t k = NextRand(&rng) & 4095;
            if (dict.Find(miss_terms[k]) != kInvalidTermId) ++local_bad;
          }
          if (local_bad) bad->fetch_add(local_bad);
        }));
  }

  // --- Sharded cache: resident population, hit and miss probes. ---
  std::fprintf(stderr, "cache: %zu resident entries...\n",
               options.cache_entries);
  ShardedLruCache<uint64_t, uint64_t> cache(options.cache_entries, 8);
  for (uint64_t k = 0; k < options.cache_entries; ++k) {
    cache.Put(k, k * 2654435761ULL);
  }
  // Shard hashing skews the prefill, so some of the first
  // `cache_entries` keys were evicted by later ones. No Puts run during
  // the storm, so residency is frozen: probe only keys still resident.
  std::vector<uint64_t> resident;
  {
    uint64_t value = 0;
    for (uint64_t k = 0; k < options.cache_entries; ++k) {
      if (cache.Get(k, &value)) resident.push_back(k);
    }
  }
  if (resident.size() < options.cache_entries / 2) {
    std::fprintf(stderr, "cache prefill retained too little (%zu/%zu)\n",
                 resident.size(), options.cache_entries);
    return 1;
  }
  for (size_t threads : kThreadCounts) {
    results.push_back(RunScenario(
        "cache_hit", threads, options.ops_per_thread,
        [&](int t, size_t ops, std::atomic<uint64_t>* bad) {
          uint64_t rng = options.seed + static_cast<uint64_t>(t) * 7919;
          uint64_t local_bad = 0;
          uint64_t value = 0;
          for (size_t i = 0; i < ops; ++i) {
            uint64_t k = resident[NextRand(&rng) % resident.size()];
            if (!cache.Get(k, &value) || value != k * 2654435761ULL) {
              ++local_bad;
            }
          }
          if (local_bad) bad->fetch_add(local_bad);
        }));
  }
  for (size_t threads : kThreadCounts) {
    results.push_back(RunScenario(
        "cache_miss", threads, options.ops_per_thread,
        [&](int t, size_t ops, std::atomic<uint64_t>* bad) {
          uint64_t rng = options.seed + static_cast<uint64_t>(t) * 104729;
          uint64_t local_bad = 0;
          uint64_t value = 0;
          for (size_t i = 0; i < ops; ++i) {
            uint64_t k =
                options.cache_entries + NextRand(&rng);  // Never resident.
            if (cache.Get(k, &value)) ++local_bad;
          }
          if (local_bad) bad->fetch_add(local_bad);
        }));
  }

  // --- Buffer pool: all pages resident (warm hit path). ---
  std::fprintf(stderr, "pool: %zu resident pages...\n", options.pool_pages);
  std::string pool_dir = (std::filesystem::temp_directory_path() /
                          "sama_bench_readers")
                             .string();
  std::filesystem::remove_all(pool_dir);
  std::filesystem::create_directories(pool_dir);
  {
    PageFile file;
    Status opened = file.Open(pool_dir + "/pages.dat", true);
    if (!opened.ok()) {
      std::fprintf(stderr, "page file open failed: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < options.pool_pages; ++i) {
      auto page = file.AllocatePage();
      if (!page.ok()) return 1;
      uint8_t buf[kPageDataSize];
      std::memset(buf, static_cast<int>(i & 0xff), sizeof(buf));
      if (!file.WritePage(static_cast<PageId>(i), buf).ok()) return 1;
    }
    BufferPool pool(&file, options.pool_pages);
    for (size_t i = 0; i < options.pool_pages; ++i) {
      auto guard = pool.Fetch(static_cast<PageId>(i));  // Warm every frame.
      if (!guard.ok()) return 1;
    }
    for (size_t threads : kThreadCounts) {
      results.push_back(RunScenario(
          "pool_hit", threads, options.ops_per_thread / 4,
          [&](int t, size_t ops, std::atomic<uint64_t>* bad) {
            uint64_t rng = options.seed + static_cast<uint64_t>(t) * 7919;
            uint64_t local_bad = 0;
            for (size_t i = 0; i < ops; ++i) {
              PageId page =
                  static_cast<PageId>(NextRand(&rng) % options.pool_pages);
              auto guard = pool.Fetch(page);
              if (!guard.ok() ||
                  guard->data()[0] != static_cast<uint8_t>(page & 0xff)) {
                ++local_bad;
              }
            }
            if (local_bad) bad->fetch_add(local_bad);
          }));
    }
  }
  std::filesystem::remove_all(pool_dir);

  // --- Dictionary reads raced against the live-update writer. ---
  std::fprintf(stderr, "updates: %zu inserts under 4 readers...\n",
               options.update_inserts);
  {
    std::string dir = (std::filesystem::temp_directory_path() /
                       "sama_bench_readers_upd")
                          .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    DataGraph graph = DataGraph::FromTriples(GovTrackFigure1Triples());
    PathIndexOptions po;
    po.dir = dir;
    PathIndex index;
    Status built = index.Build(graph, po);
    if (!built.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    Thesaurus thesaurus = Thesaurus::BuiltinEnglish();
    SamaEngine engine(&graph, &index, &thesaurus);
    UpdateOptions uo;
    uo.checkpoint_every = 0;
    Status enabled = engine.EnableUpdates(&graph, &index, uo);
    if (!enabled.ok()) {
      std::fprintf(stderr, "EnableUpdates failed: %s\n",
                   enabled.ToString().c_str());
      return 1;
    }
    const TermDictionary& live_dict = graph.dict();
    std::atomic<size_t> published{0};
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reader_ops{0};
    std::atomic<uint64_t> bad{0};
    const size_t kUpdateReaders = 4;
    std::vector<std::thread> readers;
    Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < kUpdateReaders; ++r) {
      readers.emplace_back([&, r] {
        uint64_t rng = options.seed + r * 7919;
        uint64_t ops = 0;
        uint64_t local_bad = 0;
        while (!stop.load(std::memory_order_acquire)) {
          size_t n = published.load(std::memory_order_acquire);
          if (n == 0) continue;
          Term t = Gov("Live" + std::to_string(NextRand(&rng) % n));
          if (live_dict.Find(t) == kInvalidTermId) ++local_bad;
          ++ops;
        }
        reader_ops.fetch_add(ops);
        if (local_bad) bad.fetch_add(local_bad);
      });
    }
    for (size_t i = 0; i < options.update_inserts; ++i) {
      Triple triple{Gov("Live" + std::to_string(i)), Gov("gender"),
                    Term::Literal(i % 2 == 0 ? "Male" : "Female")};
      auto lsn = engine.InsertTriple(triple);
      if (!lsn.ok()) {
        std::fprintf(stderr, "update failed: %s\n",
                     lsn.status().ToString().c_str());
        return 1;
      }
      published.store(i + 1, std::memory_order_release);
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    ScenarioResult r;
    r.name = "dict_hit_with_updates";
    r.threads = kUpdateReaders;
    r.ops = reader_ops.load();
    r.millis = MillisSince(t0);
    r.ops_per_sec = r.millis > 0 ? r.ops / (r.millis / 1000.0) : 0;
    r.mismatches = bad.load();
    std::fprintf(stderr, "  %-18s %2zu thread(s): %10.0f ops/s%s\n",
                 r.name.c_str(), r.threads, r.ops_per_sec,
                 r.mismatches ? "  MISMATCHES" : "");
    results.push_back(r);
    std::filesystem::remove_all(dir);
  }

  // --- Summary: warm-hit scaling (16t vs 1t, dict + cache combined). ---
  auto ops_at = [&](const char* name, size_t threads) {
    for (const ScenarioResult& r : results) {
      if (r.name == name && r.threads == threads) return r.ops_per_sec;
    }
    return 0.0;
  };
  double one = ops_at("dict_hit", 1) + ops_at("cache_hit", 1);
  double sixteen = ops_at("dict_hit", 16) + ops_at("cache_hit", 16);
  double hit_scaling = one > 0 ? sixteen / one : 0;
  uint64_t total_mismatches = 0;
  for (const ScenarioResult& r : results) total_mismatches += r.mismatches;

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool scaling_armed = hardware_threads >= kScalingMinThreads;
  const bool flat = scaling_armed && hit_scaling < kMinHitScaling;
  std::printf("hardware_threads=%u\n", hardware_threads);
  std::printf("hit_scaling(16t/1t)=%.2f  mismatches=%llu\n", hit_scaling,
              static_cast<unsigned long long>(total_mismatches));
  std::printf("scaling floor %.1fx %s\n", kMinHitScaling,
              scaling_armed ? "armed" : "not armed (too few cores)");
  if (flat) {
    std::fprintf(stderr,
                 "hit_scaling %.2f below the %.1fx floor on %u hardware "
                 "threads: a lock is on the hot read path\n",
                 hit_scaling, kMinHitScaling, hardware_threads);
  }
  for (const ScenarioResult& r : results) {
    std::printf("%s threads=%zu ops/s=%.0f\n", r.name.c_str(), r.threads,
                r.ops_per_sec);
  }

  if (!options.json_path.empty()) {
    WriteJson(options.json_path, options, results, hit_scaling,
              total_mismatches);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  return total_mismatches == 0 && !flat ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace sama

int main(int argc, char** argv) {
  sama::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--ops-per-thread=")) {
      options.ops_per_thread = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--dict-terms=")) {
      options.dict_terms = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--cache-entries=")) {
      options.cache_entries = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--pool-pages=")) {
      options.pool_pages = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--update-inserts=")) {
      options.update_inserts = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--ops-per-thread=N] [--dict-terms=N] "
                   "[--cache-entries=N] [--pool-pages=N] "
                   "[--update-inserts=N] [--seed=N] [--json=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.ops_per_thread == 0 || options.dict_terms == 0 ||
      options.cache_entries == 0 || options.pool_pages == 0) {
    std::fprintf(stderr, "invalid sizes\n");
    return 2;
  }
  return sama::bench::Run(options);
}
