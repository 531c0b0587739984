#include "common/string_util.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace sama {
namespace {

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi  "), "hi");
  EXPECT_EQ(TrimWhitespace("\t\nx\r "), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("no-trim"), "no-trim");
}

TEST(StringUtilTest, SplitString) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("1\n2\t3\r4"), "1\\n2\\t3\\r4");
  // Other control bytes become \u00XX; bytes >= 0x20 pass through,
  // UTF-8 included.
  EXPECT_EQ(JsonEscape(std::string("x\x01y\x1f", 4)), "x\\u0001y\\u001f");
  EXPECT_EQ(JsonEscape(std::string("\0", 1)), "\\u0000");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 ~"), "caf\xc3\xa9 ~");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(StringUtilTest, AppendJsonNumber) {
  std::string out;
  AppendJsonNumber(&out, 1.5);
  out += ',';
  AppendJsonNumber(&out, std::numeric_limits<double>::quiet_NaN());
  out += ',';
  AppendJsonNumber(&out, std::numeric_limits<double>::infinity());
  out += ',';
  AppendJsonNumber(&out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "1.5,null,null,null");
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"one"}, ","), "one");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("x", "http://"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", "file.nt"));
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo42"), "hello42");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(uint64_t{3} << 20), "3.0 MB");
  EXPECT_EQ(HumanBytes(uint64_t{5} << 30), "5.0 GB");
}

TEST(StringUtilTest, HumanMillis) {
  EXPECT_EQ(HumanMillis(250), "250 ms");
  EXPECT_EQ(HumanMillis(2500), "2.5 sec");
  EXPECT_EQ(HumanMillis(120000), "2.0 min");
}

}  // namespace
}  // namespace sama
