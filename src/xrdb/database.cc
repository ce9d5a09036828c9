#include "src/xrdb/database.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace xrdb {

namespace {

// Edge keys pack the binding into the low bit so one integer compare covers
// the whole (loose, symbol) component identity.
uint64_t EdgeKey(bool loose, xbase::Symbol symbol) {
  return (static_cast<uint64_t>(symbol) << 1) | (loose ? 1u : 0u);
}

bool EdgeKeyLoose(uint64_t key) { return (key & 1) != 0; }

xbase::Symbol EdgeKeySymbol(uint64_t key) {
  return static_cast<xbase::Symbol>(key >> 1);
}

// Visits the children of `node` that match one query level (name, clazz),
// in precedence order (see the header): tight name, loose name, tight
// class, loose class, tight ?, loose ?.  Each distinct edge is visited once
// — name == class, or either being "?", would otherwise repeat a subtree —
// and after a skip (`loose_only`) tight edges are not eligible.  Stops at
// the first visit that returns true, and returns whether one did.
template <typename NodeT, typename Visit>
bool VisitCandidates(const NodeT& node, xbase::Symbol name, xbase::Symbol clazz,
                     xbase::Symbol question, bool loose_only, Visit visit) {
  const xbase::Symbol symbols[] = {name, clazz, question};
  for (int i = 0; i < 3; ++i) {
    const xbase::Symbol symbol = symbols[i];
    if (symbol == xbase::kNoSymbol || (i > 0 && symbol == symbols[0]) ||
        (i > 1 && symbol == symbols[1])) {
      continue;  // Never interned (matches nothing), or already visited.
    }
    // EdgeKey puts the binding in the low bit, so the tight and the loose
    // edge of one symbol are adjacent: one search finds both.
    const uint64_t tight = EdgeKey(/*loose=*/false, symbol);
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), tight);
    if (it != node.keys.end() && *it == tight) {
      if (!loose_only && visit(*node.children[it - node.keys.begin()])) {
        return true;
      }
      ++it;
    }
    if (it != node.keys.end() && *it == tight + 1 &&
        visit(*node.children[it - node.keys.begin()])) {
      return true;
    }
  }
  return false;
}

// Process-global, monotonic: no two mutations anywhere ever produce the
// same generation value (see generation() in the header).
uint64_t g_generation_counter = 0;

}  // namespace

std::vector<ResourceComponent> ParseResourceName(const std::string& text) {
  std::vector<ResourceComponent> components;
  std::string current;
  bool loose = false;       // Binding preceding the component being built.
  bool have_binding = true; // The first component has an implicit tight binding.
  for (char c : text) {
    if (c == '.' || c == '*') {
      if (current.empty()) {
        if (c == '*') {
          // Runs like "**" or ".*" collapse to a loose binding; "*" at the
          // very start is also legal ("*foo").
          loose = true;
          have_binding = true;
          continue;
        }
        return {};  // ".." or leading "." is malformed.
      }
      components.push_back({loose, current});
      current.clear();
      loose = c == '*';
      have_binding = true;
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
               c == '?') {
      current.push_back(c);
    } else {
      return {};  // Illegal character in component.
    }
  }
  if (current.empty() || !have_binding) {
    return {};
  }
  components.push_back({loose, current});
  return components;
}

std::string FormatResourceName(const std::vector<ResourceComponent>& components) {
  std::string out;
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i].loose) {
      out += '*';
    } else if (i > 0) {
      out += '.';
    }
    out += components[i].name;
  }
  return out;
}

struct ResourceDatabase::Node {
  // Children as two parallel sorted arrays: the binary search touches only
  // the dense key array (8 bytes per edge, not key + pointer), which halves
  // the cache lines a probe of a high-fanout node pulls in.
  std::vector<uint64_t> keys;  // Sorted EdgeKey(loose, symbol) values.
  std::vector<std::unique_ptr<Node>> children;  // children[i] under keys[i].
  std::optional<std::string> value;
  bool has_loose_child = false;  // Cached: any loose-bound edge here.

  Node* FindOrAdd(uint64_t key) {
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    size_t index = it - keys.begin();
    if (it != keys.end() && *it == key) {
      return children[index].get();
    }
    keys.insert(it, key);
    children.insert(children.begin() + index, std::make_unique<Node>());
    return children[index].get();
  }
};

ResourceDatabase::ResourceDatabase()
    : root_(std::make_unique<Node>()),
      question_(xbase::SymbolInterner::Global().Intern("?")) {
  Touch();  // Even an empty database has a generation of its own.
}
ResourceDatabase::~ResourceDatabase() = default;
ResourceDatabase::ResourceDatabase(ResourceDatabase&&) noexcept = default;
ResourceDatabase& ResourceDatabase::operator=(ResourceDatabase&&) noexcept = default;

void ResourceDatabase::Touch() { generation_ = ++g_generation_counter; }

bool ResourceDatabase::Put(const std::string& specifier, const std::string& value) {
  std::vector<ResourceComponent> components = ParseResourceName(specifier);
  if (components.empty()) {
    XB_LOG(Warning) << "xrdb: malformed resource specifier '" << specifier << "'";
    return false;
  }
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  Node* node = root_.get();
  for (const ResourceComponent& component : components) {
    if (component.loose) {
      node->has_loose_child = true;
    }
    node = node->FindOrAdd(EdgeKey(component.loose, interner.Intern(component.name)));
  }
  if (!node->value.has_value()) {
    ++entry_count_;
  }
  node->value = value;
  Touch();
  return true;
}

std::optional<std::string> ResourceDatabase::Get(const std::vector<std::string>& names,
                                                 const std::vector<std::string>& classes) const {
  if (names.empty() || names.size() != classes.size()) {
    return std::nullopt;
  }
  // Find(), not Intern(), so a query never grows the symbol table: a
  // component no entry mentions is kNoSymbol, which matches nothing.
  const xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  const size_t depth = names.size();
  std::vector<xbase::Symbol> symbols(2 * depth);
  for (size_t i = 0; i < depth; ++i) {
    symbols[i] = interner.Find(names[i]);
    symbols[depth + i] = interner.Find(classes[i]);
  }
  std::span<const xbase::Symbol> all(symbols);
  const std::string* value =
      GetSearchResource(GetSearchList(all.first(depth - 1), all.subspan(depth, depth - 1)),
                        all[depth - 1], all[2 * depth - 1]);
  if (value == nullptr) {
    return std::nullopt;
  }
  return *value;
}

std::optional<std::string> ResourceDatabase::Get(const std::string& dotted_names,
                                                 const std::string& dotted_classes) const {
  return Get(xbase::Split(dotted_names, '.'), xbase::Split(dotted_classes, '.'));
}

ResourceDatabase::SearchList ResourceDatabase::GetSearchList(
    std::span<const xbase::Symbol> names, std::span<const xbase::Symbol> classes) const {
  SearchList list;
  if (names.size() != classes.size()) {
    return list;
  }
  std::vector<SearchState> visited;
  CollectSearchLevels(*root_, names, classes, 0, /*loose_only=*/false, &visited, &list);
  return list;
}

void ResourceDatabase::CollectSearchLevels(const Node& node,
                                           std::span<const xbase::Symbol> names,
                                           std::span<const xbase::Symbol> classes,
                                           size_t level, bool loose_only,
                                           std::vector<SearchState>* visited,
                                           SearchList* list) const {
  if (level == names.size()) {
    SearchLevel reached{&node, loose_only};
    if (std::find(list->begin(), list->end(), reached) == list->end()) {
      list->push_back(reached);
    }
    return;
  }
  SearchState state{&node, level, loose_only};
  if (std::find(visited->begin(), visited->end(), state) != visited->end()) {
    return;
  }
  visited->push_back(state);
  // Every candidate is followed, in precedence order.
  VisitCandidates(node, names[level], classes[level], question_, loose_only,
                  [&](const Node& child) {
                    CollectSearchLevels(child, names, classes, level + 1,
                                        /*loose_only=*/false, visited, list);
                    return false;
                  });
  // Lowest precedence: skip this component.  Every prefix component may be
  // skipped; the final one, which may not, is not part of the prefix.
  if (node.has_loose_child) {
    CollectSearchLevels(node, names, classes, level + 1, /*loose_only=*/true, visited, list);
  }
}

const std::string* ResourceDatabase::GetSearchResource(const SearchList& list,
                                                       xbase::Symbol name,
                                                       xbase::Symbol clazz) const {
  const std::string* found = nullptr;
  for (const SearchLevel& level : list) {
    // The final component: a matching child must itself hold the value.
    if (VisitCandidates(*level.node, name, clazz, question_, level.loose_only,
                        [&found](const Node& child) {
                          found = child.value.has_value() ? &*child.value : nullptr;
                          return found != nullptr;
                        })) {
      return found;
    }
  }
  return nullptr;
}

int ResourceDatabase::LoadFromString(const std::string& text) {
  int loaded = 0;
  std::istringstream stream(text);
  std::string line;
  std::string logical;
  auto flush = [&]() {
    std::string line_text = std::move(logical);
    logical.clear();
    std::string trimmed = xbase::TrimWhitespace(line_text);
    if (trimmed.empty() || trimmed[0] == '!' || trimmed[0] == '#') {
      return;
    }
    size_t colon = line_text.find(':');
    if (colon == std::string::npos) {
      XB_LOG(Warning) << "xrdb: line without ':' skipped: " << trimmed;
      return;
    }
    std::string key = xbase::TrimWhitespace(line_text.substr(0, colon));
    // Trailing whitespace in values is significant (only leading is eaten).
    std::string raw_value = line_text.substr(colon + 1);
    // Leading whitespace in the value is not significant; embedded is.
    size_t start = 0;
    while (start < raw_value.size() &&
           (raw_value[start] == ' ' || raw_value[start] == '\t')) {
      ++start;
    }
    std::string value;
    for (size_t i = start; i < raw_value.size(); ++i) {
      if (raw_value[i] == '\\' && i + 1 < raw_value.size() && raw_value[i + 1] == 'n') {
        value.push_back('\n');
        ++i;
      } else if (raw_value[i] == '\\' && i + 1 < raw_value.size() &&
                 raw_value[i + 1] == '\\') {
        value.push_back('\\');
        ++i;
      } else {
        value.push_back(raw_value[i]);
      }
    }
    if (Put(key, value)) {
      ++loaded;
    }
  };
  while (std::getline(stream, line)) {
    // Backslash at end of line continues onto the next line.
    while (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!line.empty() && line.back() == '\\') {
      line.pop_back();
      logical += line;
      continue;
    }
    logical += line;
    flush();
  }
  flush();
  return loaded;
}

int ResourceDatabase::LoadFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    XB_LOG(Warning) << "xrdb: cannot open " << path;
    return 0;
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return LoadFromString(contents.str());
}

void ResourceDatabase::MergeNode(Node* dst, const Node& src) {
  if (src.value.has_value()) {
    if (!dst->value.has_value()) {
      ++entry_count_;
    }
    dst->value = src.value;
  }
  for (size_t i = 0; i < src.keys.size(); ++i) {
    if (EdgeKeyLoose(src.keys[i])) {
      dst->has_loose_child = true;
    }
    MergeNode(dst->FindOrAdd(src.keys[i]), *src.children[i]);
  }
}

void ResourceDatabase::Merge(const ResourceDatabase& other) {
  // Structural copy of the source trie: both tries share the global symbol
  // table, so edges transfer by key without a FormatResourceName →
  // ParseResourceName round trip per entry.
  MergeNode(root_.get(), *other.root_);
  Touch();
}

std::vector<std::pair<std::string, std::string>> ResourceDatabase::Enumerate() const {
  std::vector<std::pair<std::string, std::string>> out;
  std::vector<ResourceComponent> prefix;
  const xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  // Iterative DFS using an explicit walker to keep Node private.  Children
  // are visited in (binding, component-name) order — symbol ids reflect
  // interning order, not lexicographic order, so each level re-sorts.
  struct Frame {
    const Node* node;
    std::vector<size_t> order;  // Indices into node->keys/children.
    size_t next = 0;
  };
  auto sorted_edges = [&interner](const Node& node) {
    std::vector<size_t> order(node.keys.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&interner, &node](size_t a, size_t b) {
      bool a_loose = EdgeKeyLoose(node.keys[a]);
      bool b_loose = EdgeKeyLoose(node.keys[b]);
      if (a_loose != b_loose) {
        return !a_loose;
      }
      return interner.NameOf(EdgeKeySymbol(node.keys[a])) <
             interner.NameOf(EdgeKeySymbol(node.keys[b]));
    });
    return order;
  };
  if (root_->value.has_value()) {
    out.emplace_back("", *root_->value);
  }
  std::vector<Frame> stack;
  stack.push_back({root_.get(), sorted_edges(*root_), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next == frame.order.size()) {
      if (!prefix.empty()) {
        prefix.pop_back();
      }
      stack.pop_back();
      continue;
    }
    size_t index = frame.order[frame.next++];
    uint64_t key = frame.node->keys[index];
    prefix.push_back({EdgeKeyLoose(key), interner.NameOf(EdgeKeySymbol(key))});
    const Node* child = frame.node->children[index].get();
    if (child->value.has_value()) {
      out.emplace_back(FormatResourceName(prefix), *child->value);
    }
    stack.push_back({child, sorted_edges(*child), 0});
  }
  return out;
}

std::string ResourceDatabase::Serialize() const {
  std::ostringstream os;
  for (const auto& [specifier, value] : Enumerate()) {
    std::string escaped;
    for (char c : value) {
      if (c == '\n') {
        escaped += "\\n";
      } else if (c == '\\') {
        escaped += "\\\\";
      } else {
        escaped.push_back(c);
      }
    }
    os << specifier << ": " << escaped << "\n";
  }
  return os.str();
}

}  // namespace xrdb
