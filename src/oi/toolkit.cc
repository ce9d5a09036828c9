#include "src/oi/toolkit.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace oi {

namespace {

std::vector<xbase::Symbol> InternAll(const std::vector<std::string>& components) {
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  std::vector<xbase::Symbol> symbols;
  symbols.reserve(components.size());
  for (const std::string& component : components) {
    symbols.push_back(interner.Intern(component));
  }
  return symbols;
}

}  // namespace

Toolkit::Toolkit(xlib::Display* display, const xrdb::ResourceDatabase* resources, int screen)
    : display_(display), resources_(resources), screen_(screen) {
  SetResourcePrefix({"swm"}, {"Swm"});
}

Toolkit::~Toolkit() = default;

void Toolkit::SetResourcePrefix(const std::vector<std::string>& names,
                                const std::vector<std::string>& classes) {
  XB_CHECK_EQ(names.size(), classes.size());
  prefix_ = {InternAll(names), InternAll(classes)};
  InvalidateQueryCaches();
}

void Toolkit::InvalidateQueryCaches() const {
  search_paths_.clear();
  for (const auto& [window, object] : registry_) {
    Bind(object);
  }
}

size_t Toolkit::SymbolPathHash::operator()(const std::vector<xbase::Symbol>& path) const {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over whole symbols.
  for (xbase::Symbol symbol : path) {
    hash = (hash ^ symbol) * 0x100000001b3ull;
  }
  return static_cast<size_t>(hash ^ (hash >> 32));
}

void Toolkit::Bind(Object* object) const {
  const ResourcePath& tree_prefix = object->TreeRoot()->tree_prefix_;
  const ResourcePath& path = object->path_;
  key_scratch_.clear();
  for (const ResourcePath* part : {&prefix_, &tree_prefix, &path}) {
    key_scratch_.insert(key_scratch_.end(), part->names.begin(), part->names.end());
  }
  for (const ResourcePath* part : {&prefix_, &tree_prefix, &path}) {
    key_scratch_.insert(key_scratch_.end(), part->classes.begin(), part->classes.end());
  }
  object->search_path_ = &ScratchEntry();
}

SearchPath& Toolkit::ScratchEntry() const {
  auto [it, inserted] = search_paths_.try_emplace(key_scratch_);
  if (inserted) {
    it->second.key = &it->first;
  }
  return it->second;
}

void Toolkit::BindTree(Object* object) const {
  Bind(object);
  if (object->type() == ObjectType::kPanel) {
    for (const std::unique_ptr<Object>& child : static_cast<Panel*>(object)->children()) {
      BindTree(child.get());
    }
  }
}

std::unique_ptr<Panel> Toolkit::CreatePanel(Panel* parent, xproto::WindowId parent_window,
                                            const std::string& name) {
  auto panel = std::make_unique<Panel>(this, parent, parent_window, name);
  // Seeded here, once the object is fully built: the call order fixes the
  // paint queue's order, and so the order of draw requests on the wire.
  panel->Invalidate(kLayoutDirty | kPaintDirty);
  return panel;
}

std::unique_ptr<Button> Toolkit::CreateButton(Panel* parent, xproto::WindowId parent_window,
                                              const std::string& name) {
  auto button = std::make_unique<Button>(this, parent, parent_window, name);
  button->Invalidate(kLayoutDirty | kPaintDirty);
  return button;
}

std::unique_ptr<TextObject> Toolkit::CreateText(Panel* parent, xproto::WindowId parent_window,
                                                const std::string& name) {
  auto text = std::make_unique<TextObject>(this, parent, parent_window, name);
  text->Invalidate(kLayoutDirty | kPaintDirty);
  return text;
}

std::unique_ptr<Menu> Toolkit::CreateMenu(xproto::WindowId parent_window,
                                          const std::string& name) {
  auto menu = std::make_unique<Menu>(this, nullptr, parent_window, name);
  menu->Invalidate(kLayoutDirty | kPaintDirty);
  return menu;
}

void Toolkit::Register(Object* object) {
  registry_[object->window()] = object;
  Bind(object);
}

void Toolkit::Unregister(Object* object) {
  frame_scheduler_.ForgetObject(object);
  registry_.erase(object->window());
}

Object* Toolkit::FindObject(xproto::WindowId window) const {
  auto it = registry_.find(window);
  return it == registry_.end() ? nullptr : it->second;
}

void Toolkit::SetTreePrefix(Object* tree_root, const std::vector<std::string>& names,
                            const std::vector<std::string>& classes) {
  XB_CHECK_EQ(names.size(), classes.size());
  tree_root->tree_prefix_ = {InternAll(names), InternAll(classes)};
  BindTree(tree_root);
}

xbase::Symbol Toolkit::CapitalizedSymbol(xbase::Symbol attribute) const {
  if (attribute >= capitalized_.size()) {
    capitalized_.resize(attribute + 1, xbase::kNoSymbol);
  }
  if (capitalized_[attribute] == xbase::kNoSymbol) {
    xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
    capitalized_[attribute] = interner.Intern(xbase::Capitalized(interner.NameOf(attribute)));
  }
  return capitalized_[attribute];
}

std::optional<std::string> Toolkit::QueryAttribute(const Object& object,
                                                   const std::string& attribute) const {
  return Probe(*object.search_path_, attribute);
}

std::optional<std::string> Toolkit::QueryAttribute(const std::vector<std::string>& names,
                                                   const std::vector<std::string>& classes,
                                                   const std::string& attribute) const {
  XB_CHECK_EQ(names.size(), classes.size());
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  key_scratch_.assign(prefix_.names.begin(), prefix_.names.end());
  for (const std::string& name : names) {
    key_scratch_.push_back(interner.Intern(name));
  }
  key_scratch_.insert(key_scratch_.end(), prefix_.classes.begin(), prefix_.classes.end());
  for (const std::string& clazz : classes) {
    key_scratch_.push_back(interner.Intern(clazz));
  }
  return Probe(ScratchEntry(), attribute);
}

std::optional<std::string> Toolkit::Probe(SearchPath& path,
                                          const std::string& attribute) const {
  ++query_stats_.queries;
  // Node pointers in a list stay valid until the database changes, and
  // every change moves the generation.
  if (path.generation != resources_->generation()) {
    std::span<const xbase::Symbol> key(*path.key);
    const size_t depth = key.size() / 2;
    path.list = resources_->GetSearchList(key.first(depth), key.subspan(depth));
    path.generation = resources_->generation();
    ++query_stats_.trie_lookups;
  } else {
    ++query_stats_.cache_hits;
  }
  xbase::Symbol attr = xbase::SymbolInterner::Global().Intern(attribute);
  const std::string* value =
      resources_->GetSearchResource(path.list, attr, CapitalizedSymbol(attr));
  if (value == nullptr) {
    return std::nullopt;
  }
  return *value;
}

std::unique_ptr<Panel> Toolkit::BuildPanelTree(const std::string& panel_name,
                                               xproto::WindowId parent_window,
                                               const DefinitionLookup& definition_lookup,
                                               const std::vector<std::string>& prefix_names,
                                               const std::vector<std::string>& prefix_classes) {
  std::optional<std::string> definition = definition_lookup(panel_name);
  if (!definition.has_value()) {
    XB_LOG(Warning) << "no panel definition for '" << panel_name << "'";
    return nullptr;
  }
  std::optional<std::vector<PanelItemDef>> items = ParsePanelDefinition(*definition);
  if (!items.has_value()) {
    XB_LOG(Warning) << "malformed panel definition for '" << panel_name << "'";
    return nullptr;
  }
  std::unique_ptr<Panel> root = CreatePanel(nullptr, parent_window, panel_name);
  if (!prefix_names.empty()) {
    // Install the prefix before populating children so their construction-
    // time attribute reads already see specific resources; the root itself
    // re-reads below.
    SetTreePrefix(root.get(), prefix_names, prefix_classes);
    root->RefreshAttributes();
  }
  build_stack_.push_back(panel_name);

  // Recursive lambda to populate a panel from its item definitions.
  std::function<void(Panel*, const std::vector<PanelItemDef>&)> populate =
      [&](Panel* panel, const std::vector<PanelItemDef>& defs) {
        for (const PanelItemDef& def : defs) {
          std::unique_ptr<Object> child;
          switch (def.type) {
            case ObjectType::kButton:
              child = std::make_unique<Button>(this, panel, panel->window(), def.name);
              break;
            case ObjectType::kText:
              child = std::make_unique<TextObject>(this, panel, panel->window(), def.name);
              break;
            case ObjectType::kMenu:
              child = std::make_unique<Menu>(this, panel, panel->window(), def.name);
              break;
            case ObjectType::kPanel: {
              auto sub = std::make_unique<Panel>(this, panel, panel->window(), def.name);
              bool cycle = std::find(build_stack_.begin(), build_stack_.end(), def.name) !=
                           build_stack_.end();
              if (cycle) {
                XB_LOG(Warning) << "panel definition cycle at '" << def.name
                                << "'; treating as plain container";
              } else {
                std::optional<std::string> sub_def = definition_lookup(def.name);
                if (sub_def.has_value()) {
                  std::optional<std::vector<PanelItemDef>> sub_items =
                      ParsePanelDefinition(*sub_def);
                  if (sub_items.has_value()) {
                    build_stack_.push_back(def.name);
                    populate(sub.get(), *sub_items);
                    build_stack_.pop_back();
                  } else {
                    XB_LOG(Warning) << "malformed nested panel definition '" << def.name
                                    << "'";
                  }
                }
                // No definition: a plain container panel (like `client`).
              }
              child = std::move(sub);
              break;
            }
          }
          child->SetPosition(def.position);
          panel->AddChild(std::move(child));
        }
      };
  populate(root.get(), *items);
  build_stack_.pop_back();
  return root;
}

bool Toolkit::DispatchEvent(const xproto::Event& event) {
  Object* object = FindObject(xproto::EventWindow(event));
  if (object == nullptr) {
    return false;
  }

  xtb::BindingEvent binding_event;
  ActionContext context;
  context.object = object;
  context.event_window = object->window();
  bool actionable = true;

  if (const auto* button = std::get_if<xproto::ButtonEvent>(&event)) {
    binding_event.kind =
        button->press ? xtb::EventKind::kButtonPress : xtb::EventKind::kButtonRelease;
    binding_event.button = button->button;
    binding_event.modifiers = button->modifiers;
    context.root_pos = button->root_pos;
    context.pos = button->pos;
    context.button = button->button;
    context.modifiers = button->modifiers;
  } else if (const auto* key = std::get_if<xproto::KeyEvent>(&event)) {
    if (!key->press) {
      return true;
    }
    binding_event.kind = xtb::EventKind::kKeyPress;
    binding_event.keysym = key->keysym;
    binding_event.modifiers = key->modifiers;
    context.root_pos = key->root_pos;
    context.pos = key->pos;
    context.modifiers = key->modifiers;
  } else if (const auto* crossing = std::get_if<xproto::CrossingEvent>(&event)) {
    binding_event.kind = crossing->enter ? xtb::EventKind::kEnter : xtb::EventKind::kLeave;
    context.root_pos = crossing->root_pos;
    context.pos = crossing->pos;
  } else if (const auto* motion = std::get_if<xproto::MotionEvent>(&event)) {
    binding_event.kind = xtb::EventKind::kMotion;
    binding_event.modifiers = motion->modifiers;
    context.root_pos = motion->root_pos;
    context.pos = motion->pos;
    context.modifiers = motion->modifiers;
  } else if (const auto* expose = std::get_if<xproto::ExposeEvent>(&event)) {
    // The exposed rectangle joins the damage region; the object repaints
    // once at the next FlushFrame.
    frame_scheduler_.AddExposeDamage(object, expose->area);
    return true;
  } else {
    actionable = false;
  }

  if (!actionable || !action_handler_) {
    return true;
  }
  for (const xtb::Binding* binding : object->MatchBindings(binding_event)) {
    for (const xtb::FunctionCall& function : binding->functions) {
      action_handler_(function, context);
    }
  }
  return true;
}

}  // namespace oi
