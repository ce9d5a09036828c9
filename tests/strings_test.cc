#include "src/base/strings.h"

#include <gtest/gtest.h>

namespace xbase {
namespace {

TEST(TrimTest, Basic) {
  EXPECT_EQ(TrimWhitespace("  hello  "), "hello");
  EXPECT_EQ(TrimWhitespace("\t\na b\r\n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(SplitTest, KeepsEmptyPieces) {
  EXPECT_EQ(Split("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", '.'), (std::vector<std::string>{"abc"}));
}

TEST(SplitWhitespaceTest, DropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc\n"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StartsEndsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("f.raise", "f."));
  EXPECT_FALSE(StartsWith("raise", "f."));
  EXPECT_TRUE(EndsWith("panel.client", "client"));
  EXPECT_FALSE(EndsWith("cli", "client"));
}

TEST(CapitalizedTest, UppersFirstCharacterOnly) {
  EXPECT_EQ(Capitalized("screen0"), "Screen0");
  EXPECT_EQ(Capitalized("iconHolder"), "IconHolder");
  EXPECT_EQ(Capitalized("Swm"), "Swm");
  EXPECT_EQ(Capitalized(""), "");
}

TEST(ParseIntTest, Basic) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-50"), -50);
  EXPECT_EQ(ParseInt("+7"), 7);
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("-").has_value());
  EXPECT_FALSE(ParseInt("12a").has_value());
  EXPECT_FALSE(ParseInt("99999999999").has_value());
}

TEST(ParseHexTest, Basic) {
  EXPECT_EQ(ParseHex("0x1234"), 0x1234u);
  EXPECT_EQ(ParseHex("ff"), 0xffu);
  EXPECT_EQ(ParseHex("0XAB"), 0xabu);
  EXPECT_FALSE(ParseHex("").has_value());
  EXPECT_FALSE(ParseHex("0x").has_value());
  EXPECT_FALSE(ParseHex("xyz").has_value());
}

TEST(ShellSplitTest, PlainWords) {
  EXPECT_EQ(ShellSplit("oclock -geom 100x100"),
            (std::vector<std::string>{"oclock", "-geom", "100x100"}));
}

TEST(ShellSplitTest, Quotes) {
  EXPECT_EQ(ShellSplit("swmhints -cmd \"oclock -geom 100x100\""),
            (std::vector<std::string>{"swmhints", "-cmd", "oclock -geom 100x100"}));
}

TEST(ShellSplitTest, EscapesAndEmptyArg) {
  EXPECT_EQ(ShellSplit("a\\ b c"), (std::vector<std::string>{"a b", "c"}));
  EXPECT_EQ(ShellSplit("x \"\" y"), (std::vector<std::string>{"x", "", "y"}));
  EXPECT_EQ(ShellSplit("say \\\"hi\\\""), (std::vector<std::string>{"say", "\"hi\""}));
}

TEST(ShellJoinTest, QuotesWhenNeeded) {
  EXPECT_EQ(ShellJoin({"oclock", "-geom", "100x100"}), "oclock -geom 100x100");
  EXPECT_EQ(ShellJoin({"a b"}), "\"a b\"");
  EXPECT_EQ(ShellJoin({""}), "\"\"");
}

class ShellRoundTrip : public ::testing::TestWithParam<std::vector<std::string>> {};

TEST_P(ShellRoundTrip, SplitJoinIdentity) {
  const std::vector<std::string>& argv = GetParam();
  EXPECT_EQ(ShellSplit(ShellJoin(argv)), argv);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShellRoundTrip,
    ::testing::Values(std::vector<std::string>{"xclock"},
                      std::vector<std::string>{"xterm", "-e", "vi my file.txt"},
                      std::vector<std::string>{"cmd", "with \"nested\" quotes"},
                      std::vector<std::string>{"back\\slash", "tab\targ"},
                      std::vector<std::string>{"", "empty", ""}));

TEST(JoinStringsTest, Basic) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(ToLowerTest, Basic) { EXPECT_EQ(ToLowerAscii("BtN1Up"), "btn1up"); }

}  // namespace
}  // namespace xbase
