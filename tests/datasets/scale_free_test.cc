#include "datasets/scale_free.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "graph/data_graph.h"

namespace sama {
namespace {

TEST(ScaleFreeTest, Deterministic) {
  ScaleFreeProfile p;
  p.num_entities = 200;
  std::vector<Triple> a = GenerateScaleFree(p);
  std::vector<Triple> b = GenerateScaleFree(p);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ScaleFreeTest, EdgesPointOldward) {
  // The generator keeps a DAG by always linking new → old entities.
  ScaleFreeProfile p;
  p.num_entities = 300;
  p.classes.clear();
  p.attribute_fraction = 0;
  for (const Triple& t : GenerateScaleFree(p)) {
    std::string s = t.subject.DisplayLabel().substr(p.entity_prefix.size());
    std::string o = t.object.DisplayLabel().substr(p.entity_prefix.size());
    EXPECT_GT(std::stoul(s), std::stoul(o));
  }
}

TEST(ScaleFreeTest, DegreeDistributionIsSkewed) {
  ScaleFreeProfile p;
  p.num_entities = 2000;
  p.classes.clear();
  p.attribute_fraction = 0;
  DataGraph g = DataGraph::FromTriples(GenerateScaleFree(p));
  size_t max_in = 0;
  size_t nodes_with_high_in = 0;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    max_in = std::max(max_in, g.in_degree(n));
    if (g.in_degree(n) > 20) ++nodes_with_high_in;
  }
  // Preferential attachment: a few heavy hubs, most nodes light.
  EXPECT_GT(max_in, 40u);
  EXPECT_LT(nodes_with_high_in, g.node_count() / 20);
}

TEST(ScaleFreeTest, ClassAndAttributeTriples) {
  ScaleFreeProfile p;
  p.num_entities = 500;
  p.classes = {"Movie", "Actor"};
  p.attribute_fraction = 0.5;
  size_t types = 0, attrs = 0;
  for (const Triple& t : GenerateScaleFree(p)) {
    if (t.predicate.DisplayLabel() == "type") ++types;
    if (t.predicate.DisplayLabel() == p.attribute_label) ++attrs;
  }
  EXPECT_EQ(types, 500u);
  EXPECT_NEAR(static_cast<double>(attrs), 250.0, 60.0);
}

struct ProfileCase {
  const char* name;
  ScaleFreeProfile (*make)(double);
  double paper_triples;
};

// gtest puts the printed parameter into the listed test name; the default
// byte dump would show the `name` pointer, which moves with every load.
void PrintTo(const ProfileCase& c, std::ostream* os) { *os << c.name; }

class ProfileTest : public testing::TestWithParam<ProfileCase> {};

TEST_P(ProfileTest, HitsScaledTripleTarget) {
  const ProfileCase& c = GetParam();
  const double scale = 0.002;
  ScaleFreeProfile profile = c.make(scale);
  std::vector<Triple> triples = GenerateScaleFree(profile);
  double target = c.paper_triples * scale;
  EXPECT_GT(static_cast<double>(triples.size()), target * 0.5);
  EXPECT_LT(static_cast<double>(triples.size()), target * 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, ProfileTest,
    testing::Values(ProfileCase{"pblog", &PBlogProfile, 50e3},
                    ProfileCase{"gov", &GovTrackProfile, 1e6},
                    ProfileCase{"kegg", &KeggProfile, 1e6},
                    ProfileCase{"imdb", &ImdbProfile, 6e6},
                    ProfileCase{"dblp", &DblpProfile, 26e6}),
    [](const testing::TestParamInfo<ProfileCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sama
