// Crash/corruption torture for the index build commit protocol and the
// engine's degraded read path. The contract under test (DESIGN.md
// "Failure model"): a build that dies at ANY point leaves, after
// reopen-time recovery, either a fully usable index or a clean
// "rebuild me" state — never silent corruption — and a damaged index
// queried in degraded mode returns a deterministic top-k over the
// surviving records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "datasets/govtrack.h"
#include "index/index_verify.h"
#include "index/path_index.h"
#include "storage/page_file.h"
#include "text/thesaurus.h"

namespace sama {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/torture_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t TortureSeed() {
  const char* s = std::getenv("SAMA_TORTURE_SEED");
  return s == nullptr ? 1234u : static_cast<uint64_t>(std::atoll(s));
}

// A compact, order-sensitive digest of a result list; two runs agree
// iff their digests agree.
std::string AnswerDigest(const std::vector<Answer>& answers) {
  std::string d;
  for (const Answer& a : answers) {
    d += std::to_string(a.score) + "/" + std::to_string(a.lambda_total);
    for (const ScoredPath& p : a.parts) d += ":" + std::to_string(p.id);
    d += ";";
  }
  return d;
}

class TortureTest : public testing::Test {
 protected:
  void SetUp() override {
    FailPoints::ClearAll();
    triples_ = GovTrackFigure1Triples();
    // The ground truth: an in-memory index over the same graph.
    baseline_graph_ = DataGraph::FromTriples(triples_);
    ASSERT_TRUE(
        baseline_index_.Build(baseline_graph_, PathIndexOptions()).ok());
    thesaurus_ = Thesaurus::BuiltinEnglish();
    SamaEngine engine(&baseline_graph_, &baseline_index_, &thesaurus_);
    auto answers =
        engine.Execute(engine.BuildQueryGraph(GovTrackQuery1Patterns()), 3);
    ASSERT_TRUE(answers.ok());
    baseline_digest_ = AnswerDigest(*answers);
    ASSERT_FALSE(baseline_digest_.empty());
  }

  void TearDown() override { FailPoints::ClearAll(); }

  // Opens (recovering), rebuilding on kNotFound, then checks the index
  // verifies clean and answers the reference query exactly like the
  // pristine in-memory baseline. This is the "zero silent corruption"
  // oracle every crash scenario must pass.
  void RecoverAndCheck(const std::string& dir) {
    PathIndexOptions options;
    options.dir = dir;
    DataGraph graph = DataGraph::FromTriples(triples_);
    PathIndex index;
    Status open_status = index.Open(&graph, options);
    if (!open_status.ok()) {
      ASSERT_EQ(open_status.code(), Status::Code::kNotFound)
          << "recovery must be clean, got: " << open_status;
      DataGraph rebuilt_graph = DataGraph::FromTriples(triples_);
      PathIndex rebuilt;
      ASSERT_TRUE(rebuilt.Build(rebuilt_graph, options).ok());
      auto report = VerifyIndexDir(dir);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_TRUE(report->clean()) << report->ToString();
      CheckAnswers(rebuilt_graph, rebuilt);
      return;
    }
    auto report = VerifyIndexDir(dir);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->clean()) << report->ToString();
    CheckAnswers(graph, index);
  }

  void CheckAnswers(DataGraph& graph, PathIndex& index) {
    SamaEngine engine(&graph, &index, &thesaurus_);
    auto answers =
        engine.Execute(engine.BuildQueryGraph(GovTrackQuery1Patterns()), 3);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(AnswerDigest(*answers), baseline_digest_)
        << "recovered index answers differently from a pristine build";
  }

  std::vector<Triple> triples_;
  DataGraph baseline_graph_;
  PathIndex baseline_index_;
  Thesaurus thesaurus_;
  std::string baseline_digest_;
};

// Crash exactly at every registered protocol point, during a REBUILD
// over an existing committed index — the hardest case, because the
// commit protocol must not destroy the old index before the new one is
// complete (or must leave a cleanly recoverable absence).
TEST_F(TortureTest, CrashAtEveryRegisteredPoint) {
  for (const std::string& point : PathIndex::BuildCrashPoints()) {
    SCOPED_TRACE(point);
    std::string dir = FreshDir("point_" + point);
    {
      DataGraph graph = DataGraph::FromTriples(triples_);
      PathIndexOptions options;
      options.dir = dir;
      PathIndex index;
      ASSERT_TRUE(index.Build(graph, options).ok());
    }
    {
      FaultyEnv env;
      FailPoints::Arm(point, Status::IoError("simulated crash at " + point),
                      &env);
      DataGraph graph = DataGraph::FromTriples(triples_);
      PathIndexOptions options;
      options.dir = dir;
      options.env = &env;
      PathIndex index;
      Status s = index.Build(graph, options);
      EXPECT_FALSE(s.ok()) << "armed point '" << point << "' never fired";
      EXPECT_TRUE(env.crashed());
      FailPoints::ClearAll();
    }
    RecoverAndCheck(dir);
  }
}

// Every registered crash point is actually exercised by a real disk
// build — the catalogue cannot rot.
TEST_F(TortureTest, CrashPointCatalogueIsLive) {
  std::string dir = FreshDir("catalogue");
  DataGraph graph = DataGraph::FromTriples(triples_);
  PathIndexOptions options;
  options.dir = dir;
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, options).ok());
  std::vector<std::string> seen = FailPoints::Seen();
  for (const std::string& point : PathIndex::BuildCrashPoints()) {
    EXPECT_TRUE(std::find(seen.begin(), seen.end(), point) != seen.end())
        << "registered crash point '" << point
        << "' was not reached by a disk build";
  }
}

// Randomized kill-the-process torture: crash the env after a varying
// number of write/sync/rename operations, reopen with a healthy env,
// and require clean recovery every single time. Seeded (override with
// SAMA_TORTURE_SEED) and iterated 100+ times; state accumulates in one
// directory across iterations so recovery also faces leftovers of
// earlier crashes.
TEST_F(TortureTest, RandomizedCrashRecoveryLoop) {
  constexpr int kIterations = 102;
  const uint64_t seed = TortureSeed();
  std::string dir = FreshDir("random");
  int crashed_builds = 0;
  for (int i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i) + " seed " +
                 std::to_string(seed));
    FaultyEnv env(nullptr, seed + static_cast<uint64_t>(i));
    // Walk the crash point through each op class's call sequence; tear
    // alternate writes so mixed failure modes meet the same recovery
    // path. The moduli roughly match how often a small build performs
    // each op, so most iterations really do die mid-build.
    FaultSpec spec;
    spec.crash = true;
    spec.torn = (i % 2) == 0;
    IoOp klass;
    switch (i % 3) {
      case 0:
        klass = IoOp::kSync;
        spec.fail_after = static_cast<uint64_t>((i * 5) % 24);
        break;
      case 1:
        klass = IoOp::kWrite;
        spec.fail_after = static_cast<uint64_t>((i * 7) % 60);
        break;
      default:
        klass = IoOp::kRename;
        spec.fail_after = static_cast<uint64_t>((i / 3) % 10);
        break;
    }
    env.Arm(klass, spec);
    {
      DataGraph graph = DataGraph::FromTriples(triples_);
      PathIndexOptions options;
      options.dir = dir;
      options.env = &env;
      PathIndex index;
      Status s = index.Build(graph, options);
      if (!s.ok()) ++crashed_builds;
      // A build whose op count never reached fail_after legitimately
      // succeeds; both outcomes flow into the same oracle.
    }
    RecoverAndCheck(dir);
  }
  // The schedule must actually have killed builds, or the loop proves
  // nothing.
  EXPECT_GT(crashed_builds, kIterations / 3)
      << "fault schedule too lenient — most builds survived";
}

// Acceptance bar: flipping any single byte of a data page must surface
// as a checksum/format error, never as silently different data.
// Exhaustively covers every byte position of one page, plus one flip
// in every page of the store through the real read path.
TEST_F(TortureTest, SingleByteFlipIsAlwaysDetected) {
  std::string dir = FreshDir("bitflip");
  {
    DataGraph graph = DataGraph::FromTriples(triples_);
    PathIndexOptions options;
    options.dir = dir;
    PathIndex index;
    ASSERT_TRUE(index.Build(graph, options).ok());
  }
  std::string path = dir + "/paths.dat";
  Env* env = Env::Default();
  auto fd = env->OpenFile(path, /*truncate=*/false);
  ASSERT_TRUE(fd.ok());
  auto size = env->FileSizeFd(*fd, path);
  ASSERT_TRUE(size.ok());
  uint64_t pages = *size / kPageSize;
  ASSERT_GE(pages, 2u);

  // Exhaustive in-memory sweep over page 1 (a data page): every byte,
  // flipped, must fail verification. A flip of the version byte
  // surfaces as kInvalidArgument rather than kCorruption; both are
  // loud detection, silence is the only failure.
  uint8_t page[kPageSize];
  auto got = env->PRead(*fd, path, kPageSize, page, kPageSize);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(*got, kPageSize);
  for (size_t pos = 0; pos < kPageSize; ++pos) {
    uint8_t flipped[kPageSize];
    std::copy(page, page + kPageSize, flipped);
    flipped[pos] ^= 0xFF;
    Status s = VerifyPageBytes(flipped, 1, path);
    ASSERT_FALSE(s.ok()) << "flip at byte " << pos << " went undetected";
    ASSERT_TRUE(s.code() == Status::Code::kCorruption ||
                s.code() == Status::Code::kInvalidArgument)
        << s;
  }

  // Through the real read path: one flip per page, detected by
  // ReadPage (or, for the eagerly validated page 0, by Open), restored
  // afterwards.
  for (uint64_t id = 0; id < pages; ++id) {
    uint64_t offset = id * kPageSize + 512 + (id * 13) % 3000;
    uint8_t original;
    auto r = env->PRead(*fd, path, offset, &original, 1);
    ASSERT_TRUE(r.ok());
    uint8_t corrupt = original ^ 0x40;
    ASSERT_TRUE(env->PWrite(*fd, path, offset, &corrupt, 1).ok());

    PageFile f;
    Status open_status = f.Open(path, /*truncate=*/false);
    if (id == 0) {
      EXPECT_EQ(open_status.code(), Status::Code::kCorruption)
          << open_status;
    } else {
      ASSERT_TRUE(open_status.ok()) << open_status;
      std::vector<uint8_t> buf;
      EXPECT_EQ(f.ReadPage(static_cast<PageId>(id), &buf).code(),
                Status::Code::kCorruption)
          << "flip in page " << id << " went undetected";
      (void)f.Close();
    }
    ASSERT_TRUE(env->PWrite(*fd, path, offset, &original, 1).ok());
  }

  // The misdirected-write case the id-folded checksum catches: a page's
  // bytes stored verbatim at another page's offset are internally
  // consistent but must still fail.
  uint8_t page1[kPageSize];
  ASSERT_TRUE(env->PRead(*fd, path, kPageSize, page1, kPageSize).ok());
  EXPECT_TRUE(VerifyPageBytes(page1, 1, path).ok());
  EXPECT_EQ(VerifyPageBytes(page1, 0, path).code(),
            Status::Code::kCorruption)
      << "misdirected write not caught by the id-folded checksum";

  // `sama_cli verify` sees the same damage through VerifyIndexDir.
  uint8_t corrupt = page1[100] ^ 0x01;
  ASSERT_TRUE(env->PWrite(*fd, path, kPageSize + 100, &corrupt, 1).ok());
  ASSERT_TRUE(env->CloseFile(*fd, path).ok());
  auto report = VerifyIndexDir(dir);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->clean());
  EXPECT_GE(report->error_count(), 1u);
}

// Degraded reads: with candidate pages destroyed, a non-strict engine
// still answers — deterministically, at any thread count, with the
// damage counted — while a strict engine refuses.
TEST_F(TortureTest, DegradedQueryIsDeterministicAndCounted) {
  std::string dir = FreshDir("degraded");
  DataGraph graph = DataGraph::FromTriples(triples_);
  PathIndexOptions options;
  options.dir = dir;
  PathIndex index;
  ASSERT_TRUE(index.Build(graph, options).ok());

  // Flip one byte in every odd page of the path store, behind the open
  // index's back, then empty its caches so reads hit the damage. Page
  // 0 (the store header, revalidated only at open) stays intact.
  std::string path = dir + "/paths.dat";
  Env* env = Env::Default();
  auto fd = env->OpenFile(path, /*truncate=*/false);
  ASSERT_TRUE(fd.ok());
  auto size = env->FileSizeFd(*fd, path);
  ASSERT_TRUE(size.ok());
  uint64_t pages = *size / kPageSize;
  ASSERT_GE(pages, 2u);
  for (uint64_t id = 1; id < pages; id += 2) {
    uint8_t b;
    ASSERT_TRUE(env->PRead(*fd, path, id * kPageSize + 777, &b, 1).ok());
    b ^= 0x20;
    ASSERT_TRUE(env->PWrite(*fd, path, id * kPageSize + 777, &b, 1).ok());
  }
  ASSERT_TRUE(env->CloseFile(*fd, path).ok());
  ASSERT_TRUE(index.DropCaches().ok());

  auto run = [&](size_t threads, bool strict) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.clustering.strict_io = strict;
    SamaEngine engine(&graph, &index, &thesaurus_, eo);
    QueryStats stats;
    auto answers = engine.Execute(
        engine.BuildQueryGraph(GovTrackQuery1Patterns()), 3, &stats);
    return std::make_pair(std::move(answers), stats);
  };

  auto serial = run(1, /*strict=*/false);
  ASSERT_TRUE(serial.first.ok()) << serial.first.status();
  EXPECT_GT(serial.second.corrupt_records_skipped, 0u)
      << "damaged pages were read without being counted";

  ASSERT_TRUE(index.DropCaches().ok());
  auto parallel = run(3, /*strict=*/false);
  ASSERT_TRUE(parallel.first.ok()) << parallel.first.status();
  EXPECT_EQ(AnswerDigest(*serial.first), AnswerDigest(*parallel.first))
      << "degraded top-k depends on thread count";
  EXPECT_EQ(serial.second.corrupt_records_skipped,
            parallel.second.corrupt_records_skipped);

  ASSERT_TRUE(index.DropCaches().ok());
  auto strict = run(1, /*strict=*/true);
  ASSERT_FALSE(strict.first.ok()) << "strict_io accepted a damaged read";
  EXPECT_EQ(strict.first.status().code(), Status::Code::kCorruption)
      << strict.first.status();
}

}  // namespace
}  // namespace sama
