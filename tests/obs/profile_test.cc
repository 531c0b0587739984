// QueryProfile::Build tree assembly — same-name sibling merging, self
// time, dangling parents, open spans, phase-counter attachment — and
// the ProfileLog retention ring backing /debug/profile.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace sama {
namespace {

const ProfileNode* FindNode(const QueryProfile& profile,
                            const std::string& name) {
  for (const ProfileNode& node : profile.nodes()) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

// The canonical engine shape: one query root, three phase children,
// chunk spans from two threads under clustering.
QueryProfile BuildEngineShape() {
  std::vector<TraceSpan> spans = {
      {1, 0, "query", 0.0, 10.0, 0, {}},
      {2, 1, "preprocess", 0.1, 1.0, 0, {}},
      {3, 1, "clustering", 1.2, 5.0, 0, {}},
      {4, 3, "score_chunk", 1.3, 2.0, 0, {}},
      {5, 3, "score_chunk", 1.4, 2.5, 1, {}},
      {6, 1, "search", 6.3, 3.5, 0, {}},
  };
  return QueryProfile::Build(std::move(spans), ProfileSummary{}, {});
}

TEST(QueryProfileTest, MergesSameNameSiblingsIntoOneNode) {
  QueryProfile profile = BuildEngineShape();
  ASSERT_EQ(profile.roots().size(), 1u);
  const ProfileNode& root = profile.nodes()[profile.roots()[0]];
  EXPECT_EQ(root.name, "query");
  ASSERT_EQ(root.children.size(), 3u);  // preprocess, clustering, search.

  const ProfileNode* chunks = FindNode(profile, "score_chunk");
  ASSERT_NE(chunks, nullptr);
  EXPECT_EQ(chunks->spans, 2u);
  EXPECT_EQ(chunks->threads, 2u);
  EXPECT_DOUBLE_EQ(chunks->wall_millis, 4.5);  // Summed across threads.
  EXPECT_DOUBLE_EQ(chunks->start_millis, 1.3);  // Earliest merged start.
}

TEST(QueryProfileTest, SelfTimeIsWallMinusChildren) {
  QueryProfile profile = BuildEngineShape();
  const ProfileNode* query = FindNode(profile, "query");
  const ProfileNode* clustering = FindNode(profile, "clustering");
  const ProfileNode* search = FindNode(profile, "search");
  ASSERT_NE(query, nullptr);
  ASSERT_NE(clustering, nullptr);
  ASSERT_NE(search, nullptr);
  // query: 10 - (1 + 5 + 3.5) = 0.5.
  EXPECT_DOUBLE_EQ(query->self_millis, 0.5);
  // clustering: 5 - 4.5 chunk wall = 0.5.
  EXPECT_DOUBLE_EQ(clustering->self_millis, 0.5);
  // Leaf: self == wall.
  EXPECT_DOUBLE_EQ(search->self_millis, search->wall_millis);
}

TEST(QueryProfileTest, SelfTimeClampsWhenParallelChildrenOverlap) {
  // Two 8ms children of a 10ms parent (they overlapped on different
  // threads): self clamps to 0 instead of going to -6.
  std::vector<TraceSpan> spans = {
      {1, 0, "phase", 0.0, 10.0, 0, {}},
      {2, 1, "work", 0.5, 8.0, 0, {}},
      {3, 1, "work", 0.5, 8.0, 1, {}},
  };
  QueryProfile profile =
      QueryProfile::Build(std::move(spans), ProfileSummary{}, {});
  const ProfileNode* phase = FindNode(profile, "phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_DOUBLE_EQ(phase->self_millis, 0.0);
}

TEST(QueryProfileTest, DanglingParentBecomesRootAndOpenSpanCountsZero) {
  std::vector<TraceSpan> spans = {
      {1, 0, "query", 0.0, 5.0, 0, {}},
      // Parent 99 was never recorded; still rendered, as a root.
      {2, 99, "stray", 1.0, 2.0, 0, {}},
      // Open span (duration < 0) contributes zero wall.
      {3, 1, "open_child", 1.0, -1.0, 0, {}},
  };
  QueryProfile profile =
      QueryProfile::Build(std::move(spans), ProfileSummary{}, {});
  EXPECT_EQ(profile.roots().size(), 2u);
  const ProfileNode* stray = FindNode(profile, "stray");
  ASSERT_NE(stray, nullptr);
  const ProfileNode* open_child = FindNode(profile, "open_child");
  ASSERT_NE(open_child, nullptr);
  EXPECT_DOUBLE_EQ(open_child->wall_millis, 0.0);
  // The open child costs its parent nothing.
  EXPECT_DOUBLE_EQ(FindNode(profile, "query")->self_millis, 5.0);
}

TEST(QueryProfileTest, EmptySpanListYieldsEmptyTree) {
  QueryProfile profile = QueryProfile::Build({}, ProfileSummary{}, {});
  EXPECT_TRUE(profile.roots().empty());
  EXPECT_TRUE(profile.nodes().empty());
}

TEST(QueryProfileTest, PhaseCountersAttachByName) {
  std::vector<QueryProfile::PhaseCounters> phases(2);
  phases[0].phase = "clustering";
  phases[0].counters.cache_hits = 11;
  phases[0].counters.pages_read = 2;
  phases[1].phase = "no_such_phase";  // Silently dropped.
  phases[1].counters.cache_hits = 999;

  std::vector<TraceSpan> spans = {
      {1, 0, "query", 0.0, 10.0, 0, {}},
      {2, 1, "clustering", 1.0, 5.0, 0, {}},
  };
  QueryProfile profile =
      QueryProfile::Build(std::move(spans), ProfileSummary{}, phases);
  const ProfileNode* clustering = FindNode(profile, "clustering");
  ASSERT_NE(clustering, nullptr);
  EXPECT_EQ(clustering->counters.cache_hits, 11u);
  EXPECT_EQ(clustering->counters.pages_read, 2u);
  EXPECT_TRUE(clustering->counters.any());
  EXPECT_FALSE(FindNode(profile, "query")->counters.any());
  uint64_t total_hits = 0;
  for (const ProfileNode& n : profile.nodes()) {
    total_hits += n.counters.cache_hits;
  }
  EXPECT_EQ(total_hits, 11u) << "unknown phase leaked into the tree";
}

TEST(QueryProfileTest, SummaryAndSpansPreserved) {
  ProfileSummary summary;
  summary.label = "q1";
  summary.num_answers = 7;
  std::vector<TraceSpan> spans = {{2, 1, "b", 1.0, 1.0, 0, {}},
                                  {1, 0, "a", 0.0, 2.0, 0, {}}};
  QueryProfile profile =
      QueryProfile::Build(std::move(spans), summary, {});
  EXPECT_EQ(profile.summary().label, "q1");
  EXPECT_EQ(profile.summary().num_answers, 7u);
  // Spans kept verbatim, sorted by id for the trace-event export.
  ASSERT_EQ(profile.spans().size(), 2u);
  EXPECT_EQ(profile.spans()[0].id, 1u);
  EXPECT_EQ(profile.spans()[1].id, 2u);
}

TEST(ProfileLogTest, RetainsBoundedRingWithMonotonicIds) {
  ProfileLog log(2);
  EXPECT_EQ(log.capacity(), 2u);
  EXPECT_EQ(log.latest_id(), 0u);
  EXPECT_EQ(log.Latest(), nullptr);

  auto make = [] {
    return std::make_shared<QueryProfile>(
        QueryProfile::Build({}, ProfileSummary{}, {}));
  };
  auto p1 = make();
  EXPECT_EQ(p1->id(), 0u);  // Unretained profiles carry id 0.
  EXPECT_EQ(log.Add(p1), 1u);
  EXPECT_EQ(p1->id(), 1u);
  EXPECT_EQ(log.Add(make()), 2u);
  EXPECT_EQ(log.Add(make()), 3u);

  // Capacity 2: profile 1 evicted, 2 and 3 retained, ids never reused.
  EXPECT_EQ(log.latest_id(), 3u);
  EXPECT_EQ(log.Get(1), nullptr);
  ASSERT_NE(log.Get(2), nullptr);
  ASSERT_NE(log.Get(3), nullptr);
  EXPECT_EQ(log.Latest()->id(), 3u);
  EXPECT_EQ(log.Get(99), nullptr);  // Never assigned.

  auto snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0]->id(), 2u);  // Oldest first.
  EXPECT_EQ(snapshot[1]->id(), 3u);
}

TEST(ProfileLogTest, ZeroCapacityClampsToOne) {
  ProfileLog log(0);
  EXPECT_EQ(log.capacity(), 1u);
  log.Add(std::make_shared<QueryProfile>(
      QueryProfile::Build({}, ProfileSummary{}, {})));
  EXPECT_NE(log.Latest(), nullptr);
}

}  // namespace
}  // namespace sama
