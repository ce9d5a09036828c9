#include "src/xrdb/database.h"

#include <gtest/gtest.h>

namespace xrdb {
namespace {

TEST(ParseResourceNameTest, TightAndLoose) {
  auto components = ParseResourceName("Swm*panel.openLook.resizeCorners");
  ASSERT_EQ(components.size(), 4u);
  EXPECT_EQ(components[0], (ResourceComponent{false, "Swm"}));
  EXPECT_EQ(components[1], (ResourceComponent{true, "panel"}));
  EXPECT_EQ(components[2], (ResourceComponent{false, "openLook"}));
  EXPECT_EQ(components[3], (ResourceComponent{false, "resizeCorners"}));
}

TEST(ParseResourceNameTest, LeadingStar) {
  auto components = ParseResourceName("*decoration");
  ASSERT_EQ(components.size(), 1u);
  EXPECT_TRUE(components[0].loose);
}

TEST(ParseResourceNameTest, Malformed) {
  EXPECT_TRUE(ParseResourceName("").empty());
  EXPECT_TRUE(ParseResourceName(".foo").empty());
  EXPECT_TRUE(ParseResourceName("a..b").empty());
  EXPECT_TRUE(ParseResourceName("a.b.").empty());
  EXPECT_TRUE(ParseResourceName("a b").empty());
}

TEST(ParseResourceNameTest, FormatRoundTrip) {
  const char* cases[] = {"swm.color.screen0.xclock.xclock.decoration",
                         "Swm*panel.openLook", "*a*b.c", "swm*shaped*decoration"};
  for (const char* text : cases) {
    auto components = ParseResourceName(text);
    ASSERT_FALSE(components.empty()) << text;
    EXPECT_EQ(FormatResourceName(components), text);
  }
}

class XrmMatchTest : public ::testing::Test {
 protected:
  ResourceDatabase db_;
};

TEST_F(XrmMatchTest, ExactTightMatch) {
  db_.Put("swm.color.screen0.decoration", "exact");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "exact");
}

TEST_F(XrmMatchTest, LooseBindingSkipsComponents) {
  db_.Put("swm*decoration", "loose");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "loose");
}

TEST_F(XrmMatchTest, TightRequiresAdjacency) {
  db_.Put("swm.decoration", "tight");
  EXPECT_FALSE(
      db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration").has_value());
}

TEST_F(XrmMatchTest, MatchingOutranksSkipping) {
  // Rule 1: an entry that matches a component beats one that skips it.
  db_.Put("swm*color*decoration", "matches-color");
  db_.Put("swm*decoration", "skips-color");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "matches-color");
}

TEST_F(XrmMatchTest, NameOutranksClass) {
  // Rule 2, and the paper's "Swm or swm, the latter having precedence".
  db_.Put("Swm*decoration", "by-class");
  db_.Put("swm*decoration", "by-name");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "by-name");
}

TEST_F(XrmMatchTest, ClassOutranksQuestionMark) {
  db_.Put("?*decoration", "by-question");
  db_.Put("Swm*decoration", "by-class");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "by-class");
}

TEST_F(XrmMatchTest, NameLooseOutranksClassTight) {
  // Rules apply in order: rule 2 (name vs class) dominates rule 3
  // (tight vs loose).
  db_.Put("swm*screen0*decoration", "name-loose");
  db_.Put("Swm.Color*decoration", "class-tight");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "name-loose");
}

TEST_F(XrmMatchTest, TightOutranksLooseSameName) {
  db_.Put("swm.color*decoration", "tight-color");
  db_.Put("swm*color*decoration", "loose-color");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "tight-color");
}

TEST_F(XrmMatchTest, PrecedenceIsLeftToRight) {
  // The leftmost differing component decides: matching "color" early beats
  // a more specific match later.
  db_.Put("swm.color*decoration", "early");
  db_.Put("swm*screen0.decoration", "late");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "early");
}

TEST_F(XrmMatchTest, FinalComponentMustMatch) {
  db_.Put("swm*color", "wrong-leaf");
  EXPECT_FALSE(
      db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration").has_value());
}

TEST_F(XrmMatchTest, EntryLongerThanQueryNeverMatches) {
  db_.Put("swm.color.screen0.decoration.extra", "too-long");
  EXPECT_FALSE(
      db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration").has_value());
}

TEST_F(XrmMatchTest, PaperSpecificResourceExample) {
  // "swm.monochrome.screen0.xclock.xclock.decoration: notitlepanel" (§3).
  db_.Put("swm.monochrome.screen0.xclock.xclock.decoration", "notitlepanel");
  db_.Put("swm*decoration", "default");
  EXPECT_EQ(db_.Get("swm.monochrome.screen0.xclock.xclock.decoration",
                    "Swm.Monochrome.Screen0.XClock.xclock.Decoration"),
            "notitlepanel");
  // A different client still gets the default.
  EXPECT_EQ(db_.Get("swm.monochrome.screen0.xterm.xterm.decoration",
                    "Swm.Monochrome.Screen0.XTerm.xterm.Decoration"),
            "default");
  // A different screen for xclock also falls back.
  EXPECT_EQ(db_.Get("swm.monochrome.screen1.xclock.xclock.decoration",
                    "Swm.Monochrome.Screen1.XClock.xclock.Decoration"),
            "default");
}

TEST_F(XrmMatchTest, ShapedPrefixExample) {
  // "swm*shaped*decoration: shapeit" (§5).
  db_.Put("swm*shaped*decoration", "shapeit");
  db_.Put("swm*decoration", "openLook");
  EXPECT_EQ(db_.Get("swm.color.screen0.shaped.Clock.oclock.decoration",
                    "Swm.Color.Screen0.Shaped.Clock.oclock.Decoration"),
            "shapeit");
  EXPECT_EQ(db_.Get("swm.color.screen0.Clock.oclock.decoration",
                    "Swm.Color.Screen0.Clock.oclock.Decoration"),
            "openLook");
}

TEST_F(XrmMatchTest, QuestionMarkMatchesSingleComponent) {
  db_.Put("swm.?.screen0.decoration", "any-visual");
  EXPECT_EQ(db_.Get("swm.color.screen0.decoration", "Swm.Color.Screen0.Decoration"),
            "any-visual");
  EXPECT_EQ(db_.Get("swm.monochrome.screen0.decoration",
                    "Swm.Monochrome.Screen0.Decoration"),
            "any-visual");
  // '?' cannot skip two components.
  EXPECT_FALSE(db_.Get("swm.color.extra.screen0.decoration",
                       "Swm.Color.Extra.Screen0.Decoration")
                   .has_value());
}

TEST_F(XrmMatchTest, ReplaceExistingEntry) {
  db_.Put("swm*decoration", "one");
  db_.Put("swm*decoration", "two");
  EXPECT_EQ(db_.size(), 1u);
  EXPECT_EQ(db_.Get("swm.decoration", "Swm.Decoration"), "two");
}

TEST_F(XrmMatchTest, MismatchedQueryLengthsRejected) {
  db_.Put("a.b", "v");
  EXPECT_FALSE(db_.Get(std::vector<std::string>{"a", "b"}, std::vector<std::string>{"A"})
                   .has_value());
  EXPECT_FALSE(db_.Get(std::vector<std::string>{}, std::vector<std::string>{}).has_value());
}

TEST(XrdbLoadTest, LoadFromStringBasics) {
  ResourceDatabase db;
  int loaded = db.LoadFromString(
      "! comment line\n"
      "swm*decoration: openLook\n"
      "\n"
      "swm.panner:   True  \n"
      "bad line without colon\n"
      "swm*empty:\n");
  EXPECT_EQ(loaded, 3);
  EXPECT_EQ(db.Get("swm.x.decoration", "Swm.X.Decoration"), "openLook");
  // Leading whitespace trimmed, trailing kept.
  EXPECT_EQ(db.Get("swm.panner", "Swm.Panner"), "True  ");
  EXPECT_EQ(db.Get("swm.empty", "Swm.Empty"), "");
}

TEST(XrdbLoadTest, ContinuationLines) {
  ResourceDatabase db;
  db.LoadFromString(
      "Swm*panel.openLook: \\\n"
      "  button pulldown +0+0 \\\n"
      "  panel client +0+1\n");
  auto value = db.Get("swm.panel.openLook", "Swm.Panel.OpenLook");
  ASSERT_TRUE(value.has_value());
  EXPECT_NE(value->find("button pulldown +0+0"), std::string::npos);
  EXPECT_NE(value->find("panel client +0+1"), std::string::npos);
}

TEST(XrdbLoadTest, EscapedNewlinesInValues) {
  ResourceDatabase db;
  db.LoadFromString("swm*bindings: <Btn1> : f.raise\\n<Btn2> : f.lower\n");
  auto value = db.Get("swm.bindings", "Swm.Bindings");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "<Btn1> : f.raise\n<Btn2> : f.lower");
}

TEST(XrdbLoadTest, SerializeRoundTrip) {
  ResourceDatabase db;
  db.Put("swm*a", "1");
  db.Put("swm.b.c", "two words");
  db.Put("swm*bind", "line1\nline2");
  ResourceDatabase copy;
  copy.LoadFromString(db.Serialize());
  EXPECT_EQ(copy.Serialize(), db.Serialize());
  EXPECT_EQ(copy.Get("swm.x.bind", "S.X.B"), "line1\nline2");
}

TEST(XrdbLoadTest, MergePrefersOther) {
  ResourceDatabase base;
  base.Put("swm*decoration", "default");
  base.Put("swm*keep", "kept");
  ResourceDatabase overlay;
  overlay.Put("swm*decoration", "user");
  base.Merge(overlay);
  EXPECT_EQ(base.Get("swm.decoration", "Swm.Decoration"), "user");
  EXPECT_EQ(base.Get("swm.keep", "Swm.Keep"), "kept");
}

TEST(XrdbLoadTest, EnumerateListsEverything) {
  ResourceDatabase db;
  db.Put("b*y", "2");
  db.Put("a.x", "1");
  auto entries = db.Enumerate();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "a.x");
  EXPECT_EQ(entries[1].first, "b*y");
}

TEST(XrdbLoadTest, MergeCopiesDeepTriesStructurally) {
  ResourceDatabase base;
  base.Put("swm.a.b.c.d", "deep-base");
  ResourceDatabase overlay;
  overlay.Put("swm.a.b.c.d", "deep-overlay");
  overlay.Put("swm*a.b*e", "mixed-bindings");
  overlay.Put("other.x", "fresh-subtree");
  base.Merge(overlay);
  EXPECT_EQ(base.size(), 3u);  // Replaced entries are not double-counted.
  EXPECT_EQ(base.Get("swm.a.b.c.d", "S.A.B.C.D"), "deep-overlay");
  // The loose bindings survive the structural copy: the skip search still
  // works through the merged-in subtree.
  EXPECT_EQ(base.Get("swm.q.a.b.r.e", "S.Q.A.B.R.E"), "mixed-bindings");
  EXPECT_EQ(base.Get("other.x", "Other.X"), "fresh-subtree");
  // Merge must leave the source untouched.
  EXPECT_EQ(overlay.size(), 3u);
  EXPECT_EQ(overlay.Get("swm.a.b.c.d", "S.A.B.C.D"), "deep-overlay");
}

TEST(XrdbGenerationTest, PutMergeAndLoadBumpGeneration) {
  ResourceDatabase db;
  uint64_t g0 = db.generation();
  ASSERT_TRUE(db.Put("swm*a", "1"));
  uint64_t g1 = db.generation();
  EXPECT_NE(g1, g0);
  // A failed Put does not touch the database and keeps the generation.
  EXPECT_FALSE(db.Put(".bad..specifier", "x"));
  EXPECT_EQ(db.generation(), g1);
  // Replacing an existing entry still changes the observable contents.
  ASSERT_TRUE(db.Put("swm*a", "2"));
  uint64_t g2 = db.generation();
  EXPECT_NE(g2, g1);
  ResourceDatabase other;
  other.Put("swm*b", "3");
  db.Merge(other);
  EXPECT_NE(db.generation(), g2);
  uint64_t g3 = db.generation();
  db.LoadFromString("swm*c: 4\n");
  EXPECT_NE(db.generation(), g3);
}

TEST(XrdbGenerationTest, DistinctDatabasesNeverShareGenerations) {
  // Generations come from a process-global counter, so a cache keyed on
  // one database's generation can never be confused by another database
  // (or by this database after a destroy-and-rebuild reload).
  ResourceDatabase a;
  ResourceDatabase b;
  a.Put("swm*x", "1");
  b.Put("swm*x", "1");
  EXPECT_NE(a.generation(), b.generation());
  uint64_t before_reload = a.generation();
  a = ResourceDatabase();
  a.Put("swm*x", "1");
  EXPECT_NE(a.generation(), before_reload);
  // Empty databases too: a search list built on one is not valid for
  // another that replaces it.
  ResourceDatabase empty;
  uint64_t before_replace = empty.generation();
  EXPECT_NE(before_replace, ResourceDatabase().generation());
  empty = ResourceDatabase();
  EXPECT_NE(empty.generation(), before_replace);
}

TEST_F(XrmMatchTest, NameEqualToClassQueriesOnce) {
  // When a query level's name equals its class (common for instance-less
  // apps), the duplicate candidate is dropped, not re-searched; precedence
  // must be unaffected.
  db_.Put("swm.Target.decoration", "tight-hit");
  db_.Put("swm*Target*decoration", "loose-hit");
  EXPECT_EQ(db_.Get(std::vector<std::string>{"swm", "Target", "decoration"},
                    std::vector<std::string>{"Swm", "Target", "Decoration"}),
            "tight-hit");
  EXPECT_EQ(db_.Get(std::vector<std::string>{"swm", "x", "Target", "decoration"},
                    std::vector<std::string>{"Swm", "X", "Target", "Decoration"}),
            "loose-hit");
}

TEST_F(XrmMatchTest, QuestionQueryComponentDedupes) {
  // A literal "?" query component coincides with the wildcard probe; the
  // matcher should survive that and keep name-precedence over "?".
  db_.Put("swm.?.decoration", "wild");
  EXPECT_EQ(db_.Get(std::vector<std::string>{"swm", "?", "decoration"},
                    std::vector<std::string>{"Swm", "Q", "Decoration"}), "wild");
  EXPECT_EQ(db_.Get(std::vector<std::string>{"swm", "other", "decoration"}, std::vector<std::string>{"Swm", "Other", "Decoration"}),
            "wild");
}

TEST_F(XrmMatchTest, NeverInternedComponentsMissCleanly) {
  // Query components no entry has ever mentioned take the symbol-miss path
  // (kNoSymbol) at every level, including loose fallback through them.
  db_.Put("swm*decoration", "fallback");
  EXPECT_EQ(db_.Get(std::vector<std::string>{"swm", "zzz-unseen", "decoration"},
                    std::vector<std::string>{"Swm", "Zzz-Unseen", "Decoration"}),
            "fallback");
  EXPECT_FALSE(db_.Get(std::vector<std::string>{"totally", "unknown"},
                       std::vector<std::string>{"Totally", "Unknown"}).has_value());
}

}  // namespace
}  // namespace xrdb
