// X resource database (Xrm) reimplementation.
//
// swm is configured *entirely* through the resource database (paper §3):
// per-screen and per-visual prefixes, specific resources naming WM_CLASS
// components, panel definitions, bindings, template files.  This module
// implements the standard Xrm model: entries are component sequences with
// tight (".") or loose ("*") bindings plus a single-component wildcard
// ("?"), and queries follow XrmGetResource's precedence rules:
//
//   1. Matching a component (by name, class or "?") outranks skipping it
//      (which only a loose binding permits).
//   2. Matching by name outranks matching by class outranks "?".
//   3. A tight binding outranks a loose binding.
//
// Rules apply per component, left to right, rule 1 strongest.
//
// One algorithm answers every query, the XrmQGetSearchList /
// XrmQGetSearchResource pair: GetSearchList walks a query's prefix (every
// component but the last) once and lists the trie nodes it can reach, and
// GetSearchResource probes those nodes for the final component.  Get is
// that pair over a whole query.  Callers that ask many final components
// under one prefix keep the list: the OI toolkit keeps one per distinct
// resource path, and swm's own lookups go through the toolkit too.
//
// The trie is keyed on interned symbols (xbase::SymbolInterner), so a
// probe is an integer binary search with zero allocations; the string API
// resolves symbols at the boundary.  A monotonic generation() counter is
// bumped by every mutation so a kept list can be rebuilt when the
// database changes.
#ifndef SRC_XRDB_DATABASE_H_
#define SRC_XRDB_DATABASE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/interner.h"

namespace xrdb {

struct ResourceComponent {
  bool loose = false;  // Binding *preceding* this component: '.' or '*'.
  std::string name;

  friend bool operator==(const ResourceComponent&, const ResourceComponent&) = default;
  friend auto operator<=>(const ResourceComponent&, const ResourceComponent&) = default;
};

// Parses "Swm*panel.openLook.resizeCorners" into components.  Returns an
// empty vector on malformed input (empty component, trailing binding).
std::vector<ResourceComponent> ParseResourceName(const std::string& text);

// Re-serializes a component list ("a*b.c").
std::string FormatResourceName(const std::vector<ResourceComponent>& components);

class ResourceDatabase {
  struct Node;  // Trie node (private; SearchLevel only points at one).

 public:
  ResourceDatabase();
  ~ResourceDatabase();

  ResourceDatabase(const ResourceDatabase&) = delete;
  ResourceDatabase& operator=(const ResourceDatabase&) = delete;
  ResourceDatabase(ResourceDatabase&&) noexcept;
  ResourceDatabase& operator=(ResourceDatabase&&) noexcept;

  // Inserts or replaces one entry.  Returns false on malformed specifier.
  bool Put(const std::string& specifier, const std::string& value);

  // XrmGetResource: `names` and `classes` must be the same length (the fully
  // qualified name and class of the resource).  Returns the value of the
  // most specific matching entry: GetSearchResource over the search list of
  // every component but the last.  Builds a list per call; a caller that
  // asks again under one prefix should keep the list instead.
  std::optional<std::string> Get(const std::vector<std::string>& names,
                                 const std::vector<std::string>& classes) const;

  // Convenience for "name.name.name" / "Class.Class.Class" dotted strings.
  std::optional<std::string> Get(const std::string& dotted_names,
                                 const std::string& dotted_classes) const;

  // XrmQGetSearchList / XrmQGetSearchResource: split a query into its
  // prefix (every component but the last) and its final component, so
  // callers that ask many final components under one prefix walk the trie
  // from the root once.  A level is a trie node the prefix can reach, with
  // `loose_only` set when it was reached by skipping the last prefix
  // component (only loose edges may follow a skip).  Levels are listed in
  // precedence order, each once.  A list holds node pointers: it is
  // valid until the next mutation, i.e. while generation() is unchanged.
  struct SearchLevel {
    const Node* node;
    bool loose_only;

    friend bool operator==(const SearchLevel&, const SearchLevel&) = default;
  };
  using SearchList = std::vector<SearchLevel>;
  SearchList GetSearchList(std::span<const xbase::Symbol> names,
                           std::span<const xbase::Symbol> classes) const;
  // The value for final component (name, clazz) under the list's prefix:
  // equal to Get(prefix + name, prefix + clazz).  nullptr on a miss; the
  // pointer is valid while the list is.
  const std::string* GetSearchResource(const SearchList& list, xbase::Symbol name,
                                       xbase::Symbol clazz) const;

  // Loads "key: value" lines.  Supports '!' comment lines, '#' directives
  // (ignored), backslash line-continuation and the \n escape in values.
  // Returns the number of entries loaded; malformed lines are skipped with
  // a warning.
  int LoadFromString(const std::string& text);
  int LoadFromFile(const std::string& path);

  // Merges another database over this one (other's entries win).  Walks the
  // source trie directly; no entry is re-parsed.
  void Merge(const ResourceDatabase& other);

  // All entries as (specifier, value) pairs, in deterministic order.
  std::vector<std::pair<std::string, std::string>> Enumerate() const;
  std::string Serialize() const;

  size_t size() const { return entry_count_; }
  bool empty() const { return entry_count_ == 0; }

  // Set at construction and changed by every successful Put/Merge/Load.
  // Drawn from a counter global to the process, so no two databases, empty
  // ones included, ever share a generation — a search list keyed on it
  // stays correct across SetResources swaps and whole-database reloads.
  uint64_t generation() const { return generation_; }

 private:
  // GetSearchList's DFS: appends every level reachable from (node, level,
  // loose_only).  `visited` holds the prefix states already expanded; a
  // second visit could only append levels already listed.
  struct SearchState {
    const Node* node;
    size_t level;
    bool loose_only;

    friend bool operator==(const SearchState&, const SearchState&) = default;
  };
  void CollectSearchLevels(const Node& node, std::span<const xbase::Symbol> names,
                           std::span<const xbase::Symbol> classes, size_t level,
                           bool loose_only, std::vector<SearchState>* visited,
                           SearchList* list) const;
  void MergeNode(Node* dst, const Node& src);
  void Touch();  // Bumps generation_ from the global counter.

  std::unique_ptr<Node> root_;
  size_t entry_count_ = 0;
  uint64_t generation_ = 0;
  xbase::Symbol question_;  // Interned "?".
};

}  // namespace xrdb

#endif  // SRC_XRDB_DATABASE_H_
