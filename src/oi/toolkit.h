// The OI toolkit runtime (paper §2): owns the connection between objects,
// the resource database and the display; builds object trees from panel
// definitions; dispatches X events to object bindings.
#ifndef SRC_OI_TOOLKIT_H_
#define SRC_OI_TOOLKIT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/interner.h"
#include "src/oi/frame.h"
#include "src/oi/menu.h"
#include "src/oi/panel.h"
#include "src/oi/panel_def.h"
#include "src/oi/widgets.h"
#include "src/xlib/display.h"
#include "src/xrdb/database.h"

namespace oi {

// Context an event was dispatched in, handed to action callbacks so
// window-manager functions can resolve "the current window", "#$", etc.
struct ActionContext {
  Object* object = nullptr;
  xproto::WindowId event_window = xproto::kNone;
  xbase::Point root_pos;
  xbase::Point pos;
  int button = 0;
  uint32_t modifiers = 0;
};

// Invoked once per function call of a matched binding.
using ActionHandler = std::function<void(const xtb::FunctionCall&, const ActionContext&)>;

// One distinct full resource path — session prefix + tree prefix + object
// path, or session prefix + a lookup's own prefix, interned — and its Xrm
// search list.  Every object on that path is bound to the same entry, so
// the second decoration of a WM_CLASS answers its attribute queries from
// the list the first one built.
struct SearchPath {
  const std::vector<xbase::Symbol>* key = nullptr;  // Names, then classes.
  // Database generation `list` was built at; 0, which no database has,
  // until the first build.
  uint64_t generation = 0;
  xrdb::ResourceDatabase::SearchList list;
};

class Toolkit {
 public:
  Toolkit(xlib::Display* display, const xrdb::ResourceDatabase* resources, int screen);
  ~Toolkit();

  Toolkit(const Toolkit&) = delete;
  Toolkit& operator=(const Toolkit&) = delete;

  xlib::Display& display() { return *display_; }
  const xrdb::ResourceDatabase& resources() const { return *resources_; }
  void SetResources(const xrdb::ResourceDatabase* resources) {
    resources_ = resources;
    InvalidateQueryCaches();
  }
  int screen() const { return screen_; }

  // The session prefix, prepended to every attribute query of every object
  // (swm passes e.g. {"swm","color","screen0"} / {"Swm","Color","Screen0"}).
  void SetResourcePrefix(const std::vector<std::string>& names,
                         const std::vector<std::string>& classes);

  void SetActionHandler(ActionHandler handler) { action_handler_ = std::move(handler); }

  // ---- Object factory -------------------------------------------------------
  // All object creation funnels through these so the registry stays correct.
  std::unique_ptr<Panel> CreatePanel(Panel* parent, xproto::WindowId parent_window,
                                     const std::string& name);
  std::unique_ptr<Button> CreateButton(Panel* parent, xproto::WindowId parent_window,
                                       const std::string& name);
  std::unique_ptr<TextObject> CreateText(Panel* parent, xproto::WindowId parent_window,
                                         const std::string& name);
  std::unique_ptr<Menu> CreateMenu(xproto::WindowId parent_window, const std::string& name);

  // Builds a full object tree for the named panel definition.  Definitions
  // are resolved through `definition_lookup` (swm resolves "swm*panel.NAME"
  // with its screen prefixes); nested panel items recurse, with cycles and
  // missing definitions diagnosed and skipped.  Extra resource-path prefix
  // components for this tree (e.g. the client's class/instance for specific
  // resources) are installed with SetTreePrefix on the returned panel.
  using DefinitionLookup =
      std::function<std::optional<std::string>(const std::string& panel_name)>;
  std::unique_ptr<Panel> BuildPanelTree(const std::string& panel_name,
                                        xproto::WindowId parent_window,
                                        const DefinitionLookup& definition_lookup,
                                        const std::vector<std::string>& prefix_names = {},
                                        const std::vector<std::string>& prefix_classes = {});

  // Per-tree extra resource prefix (between the toolkit prefix and the
  // object path).  Used for specific resources: class + instance of the
  // client a decoration tree belongs to, and the "sticky"/"shaped" markers.
  // Rebinds the objects of that tree only.
  void SetTreePrefix(Object* tree_root, const std::vector<std::string>& names,
                     const std::vector<std::string>& classes);

  // ---- Event dispatch ----------------------------------------------------------
  // Routes an event to the owning object's bindings; returns true if the
  // event targeted a toolkit object (regardless of binding matches).
  bool DispatchEvent(const xproto::Event& event);

  Object* FindObject(xproto::WindowId window) const;

  // Full attribute query for an object (toolkit prefix + tree prefix +
  // object path + attribute).
  //
  // Each object is bound to the SearchPath of its full interned path when
  // it is built (docs/RESOURCES.md).  A query walks the trie from the root
  // only when that path's search list is missing or older than the
  // database generation(); otherwise it probes the list's levels for the
  // attribute.  Objects on one path share one list.
  std::optional<std::string> QueryAttribute(const Object& object,
                                            const std::string& attribute) const;
  // The same query for a path no object is bound to: session prefix +
  // `names`/`classes` + attribute.  swm's own lookups (screen, client and
  // panel-definition resources) come here.  The path gets an entry in the
  // same table, rebuilt by the same generation rule and counted in the same
  // query_stats(), so a second lookup under one prefix walks no trie.
  std::optional<std::string> QueryAttribute(const std::vector<std::string>& names,
                                            const std::vector<std::string>& classes,
                                            const std::string& attribute) const;

  // Drops every search list and rebinds every object.  Called on
  // SetResources and SetResourcePrefix; exposed for cold-path measurements
  // and for callers that mutate the database behind a const pointer
  // without going through ResourceDatabase (none today).
  void InvalidateQueryCaches() const;
  // Distinct full paths bound so far (objects share entries; dead paths
  // stay until the next InvalidateQueryCaches).
  size_t search_path_count() const { return search_paths_.size(); }
  // Objects registered by window.
  size_t object_count() const { return registry_.size(); }

  // ---- Frame pipeline ------------------------------------------------------
  // The retained-mode scheduler every object of this toolkit reports its
  // invalidations to (docs/RENDERING.md).
  FrameScheduler& frame_scheduler() { return frame_scheduler_; }
  const FrameScheduler& frame_scheduler() const { return frame_scheduler_; }
  // Lays out dirty subtrees; FlushFrame also paints accumulated damage: one frame.
  void LayOut() { frame_scheduler_.LayOut(); }
  void FlushFrame() { frame_scheduler_.FlushFrame(); }
  // Per-frame instrumentation, alongside the query-cache stats below.
  const FrameScheduler::Stats& frame_stats() const { return frame_scheduler_.stats(); }
  void ResetFrameStats() { frame_scheduler_.ResetStats(); }

  // Query-path instrumentation (benchmarks, tests).
  struct QueryStats {
    uint64_t queries = 0;       // QueryAttribute calls, both forms.
    uint64_t cache_hits = 0;    // Answered from an already-built search list.
    uint64_t trie_lookups = 0;  // Search-list builds (walks from the trie root).
  };
  const QueryStats& query_stats() const { return query_stats_; }
  void ResetQueryStats() const { query_stats_ = {}; }

  // Registry maintenance (called from Object's ctor/dtor).  Register also
  // binds the object to its SearchPath.
  void Register(Object* object);
  void Unregister(Object* object);

 private:
  struct SymbolPathHash {
    size_t operator()(const std::vector<xbase::Symbol>& path) const;
  };

  // Points the object at the SearchPath of its full path, adding the entry
  // if the path is new.  BindTree does so for a whole (sub)tree.
  void Bind(Object* object) const;
  void BindTree(Object* object) const;
  // The entry keyed by key_scratch_, added if the path is new.
  SearchPath& ScratchEntry() const;
  // Answers `attribute` from the entry's search list, rebuilding the list
  // first when the database has changed since it was built.
  std::optional<std::string> Probe(SearchPath& path, const std::string& attribute) const;
  // Interned capitalized form of an attribute symbol ("bindings"→"Bindings").
  xbase::Symbol CapitalizedSymbol(xbase::Symbol attribute) const;

  xlib::Display* display_;
  const xrdb::ResourceDatabase* resources_;
  int screen_;
  ResourcePath prefix_;  // The session prefix.
  std::map<xproto::WindowId, Object*> registry_;
  ActionHandler action_handler_;
  std::vector<std::string> build_stack_;  // Cycle detection during BuildPanelTree.
  FrameScheduler frame_scheduler_;

  // ---- Query state (logically const: pure memoization) ------------------------
  // Keyed by the full path, names then classes.  Node-based, so the
  // SearchPath pointers objects hold survive rehashing.
  mutable std::unordered_map<std::vector<xbase::Symbol>, SearchPath, SymbolPathHash>
      search_paths_;
  mutable std::vector<xbase::Symbol> key_scratch_;
  // Indexed by attribute symbol (symbols are dense); kNoSymbol = not yet seen.
  mutable std::vector<xbase::Symbol> capitalized_;
  mutable QueryStats query_stats_;
};

}  // namespace oi

#endif  // SRC_OI_TOOLKIT_H_
