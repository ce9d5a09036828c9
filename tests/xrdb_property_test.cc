// Differential property test: the trie-based Xrm matcher vs a brute-force
// reference that enumerates every alignment of every entry and picks the
// lexicographically best by the precedence rules.  Random databases and
// queries; any divergence is a matcher bug.
#include <gtest/gtest.h>

#include <random>

#include "src/base/interner.h"
#include "src/xrdb/database.h"

namespace xrdb {
namespace {

// Per-level cost of one alignment step, ordered by precedence (lower wins):
// name-tight, name-loose, class-tight, class-loose, ?-tight, ?-loose, skip.
enum : int {
  kNameTight = 0,
  kNameLoose = 1,
  kClassTight = 2,
  kClassLoose = 3,
  kQTight = 4,
  kQLoose = 5,
  kSkip = 6,
};

// All alignment score-vectors of `entry` against the query; empty if the
// entry cannot match.
void Alignments(const std::vector<ResourceComponent>& entry, size_t entry_pos,
                const std::vector<std::string>& names,
                const std::vector<std::string>& classes, size_t level, bool after_skip,
                std::vector<int>* current, std::vector<std::vector<int>>* out) {
  if (level == names.size()) {
    if (entry_pos == entry.size()) {
      out->push_back(*current);
    }
    return;
  }
  if (entry_pos < entry.size()) {
    const ResourceComponent& component = entry[entry_pos];
    bool binding_ok = component.loose || !after_skip;
    if (binding_ok) {
      int cost = -1;
      if (component.name == names[level]) {
        cost = component.loose ? kNameLoose : kNameTight;
      } else if (component.name == classes[level]) {
        cost = component.loose ? kClassLoose : kClassTight;
      } else if (component.name == "?") {
        cost = component.loose ? kQLoose : kQTight;
      }
      if (cost >= 0) {
        current->push_back(cost);
        Alignments(entry, entry_pos + 1, names, classes, level + 1, false, current, out);
        current->pop_back();
      }
    }
  }
  // Skip this query level; legal only if some upcoming loose binding can
  // absorb it — i.e. the next consumed entry component is loose-bound.
  // (Skipping trailing levels is never legal: the final component must
  // match.)
  if (entry_pos < entry.size() && level + 1 < names.size() + 1) {
    // A skip is absorbed by the loose binding of the *next* matched
    // component, so it must be loose.
    if (entry[entry_pos].loose && level + 1 <= names.size() - 1) {
      current->push_back(kSkip);
      Alignments(entry, entry_pos, names, classes, level + 1, true, current, out);
      current->pop_back();
    }
  }
}

// The reference matcher.
std::optional<std::string> ReferenceGet(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const std::vector<std::string>& names, const std::vector<std::string>& classes) {
  std::optional<std::vector<int>> best_score;
  std::optional<std::string> best_value;
  for (const auto& [specifier, value] : entries) {
    std::vector<ResourceComponent> components = ParseResourceName(specifier);
    std::vector<std::vector<int>> alignments;
    std::vector<int> current;
    Alignments(components, 0, names, classes, 0, false, &current, &alignments);
    for (const std::vector<int>& score : alignments) {
      if (!best_score.has_value() || score < *best_score) {
        best_score = score;
        best_value = value;
      }
    }
  }
  return best_value;
}

std::string RandomComponent(std::mt19937* rng) {
  // A tiny alphabet maximizes collisions between names, classes and '?'.
  static const char* kPool[] = {"a", "b", "A", "B", "?"};
  std::uniform_int_distribution<int> pick(0, 4);
  return kPool[pick(*rng)];
}

// A random database of 1..max_entries entries of 1..max_components
// components over the RandomComponent alphabet, with random tight and
// loose bindings.  `entries` mirrors it for ReferenceGet: a later Put of an
// identical specifier replaces the earlier value.
void RandomDatabase(std::mt19937* rng, int max_entries, int max_components,
                    ResourceDatabase* db,
                    std::vector<std::pair<std::string, std::string>>* entries) {
  std::uniform_int_distribution<int> entry_count(1, max_entries);
  std::uniform_int_distribution<int> component_count(1, max_components);
  std::uniform_int_distribution<int> coin(0, 1);
  int n = entry_count(*rng);
  for (int i = 0; i < n; ++i) {
    std::string specifier;
    int m = component_count(*rng);
    for (int c = 0; c < m; ++c) {
      specifier += (c == 0 ? (coin(*rng) ? "*" : "") : (coin(*rng) ? "*" : "."));
      specifier += RandomComponent(rng);
    }
    std::string value = "v" + std::to_string(i);
    if (db->Put(specifier, value)) {
      std::string canonical = FormatResourceName(ParseResourceName(specifier));
      bool replaced = false;
      for (auto& entry : *entries) {
        if (FormatResourceName(ParseResourceName(entry.first)) == canonical) {
          entry.second = value;
          replaced = true;
        }
      }
      if (!replaced) {
        entries->emplace_back(specifier, value);
      }
    }
  }
}

class XrdbDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(XrdbDifferentialTest, MatchesBruteForceReference) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> entry_count(1, 12);
  std::uniform_int_distribution<int> component_count(1, 4);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int round = 0; round < 40; ++round) {
    // Random database.
    ResourceDatabase db;
    std::vector<std::pair<std::string, std::string>> entries;
    int n = entry_count(rng);
    for (int i = 0; i < n; ++i) {
      std::string specifier;
      int m = component_count(rng);
      for (int c = 0; c < m; ++c) {
        if (c > 0 || coin(rng) == 0 || true) {
          specifier += (c == 0 ? (coin(rng) ? "*" : "") : (coin(rng) ? "*" : "."));
        }
        specifier += RandomComponent(&rng);
      }
      std::string value = "v" + std::to_string(i);
      if (db.Put(specifier, value)) {
        // Later Puts replace earlier identical specifiers; mirror that.
        std::string canonical = FormatResourceName(ParseResourceName(specifier));
        bool replaced = false;
        for (auto& entry : entries) {
          if (FormatResourceName(ParseResourceName(entry.first)) == canonical) {
            entry.second = value;
            replaced = true;
          }
        }
        if (!replaced) {
          entries.emplace_back(specifier, value);
        }
      }
    }
    // Random query of depth 1..4.  Query components never contain '?'
    // (queries are concrete names), but reuse the small alphabet.
    static const char* kNamePool[] = {"a", "b", "c"};
    static const char* kClassPool[] = {"A", "B", "C"};
    std::uniform_int_distribution<int> depth_dist(1, 4);
    std::uniform_int_distribution<int> name_pick(0, 2);
    int depth = depth_dist(rng);
    std::vector<std::string> names;
    std::vector<std::string> classes;
    for (int d = 0; d < depth; ++d) {
      names.push_back(kNamePool[name_pick(rng)]);
      classes.push_back(kClassPool[name_pick(rng)]);
    }

    std::optional<std::string> trie_result = db.Get(names, classes);
    std::optional<std::string> reference = ReferenceGet(entries, names, classes);
    ASSERT_EQ(trie_result, reference)
        << "round " << round << "\ndb:\n"
        << db.Serialize() << "query names: " << names.size() << " deep";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XrdbDifferentialTest, ::testing::Range(1, 21));

// Collision-heavy variant: query name and class frequently coincide (and
// may equal "?"), so the candidate deduplication in VisitCandidates is
// constantly exercised — a wrongly dropped probe or a double-searched
// subtree with a precedence bug diverges from the reference immediately.  Queries run
// deeper (up to 6) to cover skip-chains through loose bindings.
class XrdbCollisionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(XrdbCollisionDifferentialTest, DedupedMatcherTracksReference) {
  std::mt19937 rng(GetParam() * 7919);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int round = 0; round < 30; ++round) {
    ResourceDatabase db;
    std::vector<std::pair<std::string, std::string>> entries;
    RandomDatabase(&rng, 10, 5, &db, &entries);
    // Query components drawn from the entry alphabet so name == class (and
    // name == "?") happens often; half the levels are forced identical.
    static const char* kQueryPool[] = {"a", "b", "A", "B", "?"};
    std::uniform_int_distribution<int> pool_pick(0, 4);
    std::uniform_int_distribution<int> depth_dist(1, 6);
    int depth = depth_dist(rng);
    std::vector<std::string> names;
    std::vector<std::string> classes;
    for (int d = 0; d < depth; ++d) {
      names.push_back(kQueryPool[pool_pick(rng)]);
      classes.push_back(coin(rng) ? names.back() : kQueryPool[pool_pick(rng)]);
    }

    std::optional<std::string> trie_result = db.Get(names, classes);
    std::optional<std::string> reference = ReferenceGet(entries, names, classes);
    ASSERT_EQ(trie_result, reference)
        << "round " << round << "\ndb:\n"
        << db.Serialize() << "query depth: " << depth;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XrdbCollisionDifferentialTest, ::testing::Range(1, 16));

// Search lists (the toolkit's query path): GetSearchResource over
// GetSearchList(prefix) must equal Get and the brute-force reference on the
// whole query.  Each random prefix gets one list, and several final
// components are asked under it, the way objects sharing one resource path
// ask for many attributes.  Name == class (and "?") collisions are as
// frequent as in the collision test above, and prefixes may be empty.
class XrdbSearchListDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(XrdbSearchListDifferentialTest, SearchResourceMatchesGetAndReference) {
  std::mt19937 rng(GetParam() * 104729);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> prefix_depth(0, 5);
  static const char* kQueryPool[] = {"a", "b", "A", "B", "?"};
  std::uniform_int_distribution<int> pool_pick(0, 4);
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  auto component = [&](std::vector<std::string>* names, std::vector<std::string>* classes) {
    names->push_back(kQueryPool[pool_pick(rng)]);
    classes->push_back(coin(rng) ? names->back() : kQueryPool[pool_pick(rng)]);
  };
  auto intern_all = [&](const std::vector<std::string>& strings) {
    std::vector<xbase::Symbol> symbols;
    for (const std::string& text : strings) {
      symbols.push_back(interner.Intern(text));
    }
    return symbols;
  };

  for (int round = 0; round < 40; ++round) {
    ResourceDatabase db;
    std::vector<std::pair<std::string, std::string>> entries;
    RandomDatabase(&rng, 12, 5, &db, &entries);
    for (int prefix_round = 0; prefix_round < 6; ++prefix_round) {
      std::vector<std::string> names;
      std::vector<std::string> classes;
      int depth = prefix_depth(rng);
      for (int d = 0; d < depth; ++d) {
        component(&names, &classes);
      }
      std::vector<xbase::Symbol> name_symbols = intern_all(names);
      std::vector<xbase::Symbol> class_symbols = intern_all(classes);
      ResourceDatabase::SearchList list = db.GetSearchList(name_symbols, class_symbols);
      for (size_t i = 0; i < list.size(); ++i) {
        for (size_t j = i + 1; j < list.size(); ++j) {
          ASSERT_FALSE(list[i] == list[j]) << "level listed twice";
        }
      }
      for (int last = 0; last < 4; ++last) {
        component(&names, &classes);
        const std::string* found = db.GetSearchResource(
            list, interner.Intern(names.back()), interner.Intern(classes.back()));
        std::optional<std::string> via_list;
        if (found != nullptr) {
          via_list = *found;
        }
        ASSERT_EQ(via_list, db.Get(names, classes))
            << "round " << round << " prefix depth " << depth << "\ndb:\n"
            << db.Serialize();
        ASSERT_EQ(via_list, ReferenceGet(entries, names, classes))
            << "round " << round << " prefix depth " << depth << "\ndb:\n"
            << db.Serialize();
        names.pop_back();
        classes.pop_back();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XrdbSearchListDifferentialTest, ::testing::Range(1, 31));

}  // namespace
}  // namespace xrdb
