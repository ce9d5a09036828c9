#include "src/oi/toolkit.h"

#include <algorithm>

#include "src/base/logging.h"

namespace oi {

namespace {

std::string Capitalized(const std::string& s) {
  if (s.empty()) {
    return s;
  }
  std::string out = s;
  out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  return out;
}

}  // namespace

Toolkit::Toolkit(xlib::Display* display, const xrdb::ResourceDatabase* resources, int screen)
    : display_(display), resources_(resources), screen_(screen) {
  SetResourcePrefix({"swm"}, {"Swm"});
}

Toolkit::~Toolkit() = default;

void Toolkit::SetResourcePrefix(std::vector<std::string> names,
                                std::vector<std::string> classes) {
  XB_CHECK_EQ(names.size(), classes.size());
  prefix_names_ = std::move(names);
  prefix_classes_ = std::move(classes);
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  prefix_name_symbols_.clear();
  prefix_class_symbols_.clear();
  for (const std::string& name : prefix_names_) {
    prefix_name_symbols_.push_back(interner.Intern(name));
  }
  for (const std::string& clazz : prefix_classes_) {
    prefix_class_symbols_.push_back(interner.Intern(clazz));
  }
  InvalidateQueryCaches();
}

void Toolkit::InvalidateQueryCaches() const {
  path_cache_.clear();
  attribute_cache_.clear();
  seen_generation_ = resources_ != nullptr ? resources_->generation() : 0;
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

void Toolkit::Register(Object* object) { registry_[object->window()] = object; }

void Toolkit::Unregister(Object* object) {
  frame_scheduler_.ForgetObject(object);
  registry_.erase(object->window());
  tree_prefixes_.erase(object);
  // Drop the object's cache entries: a later object may reuse the address.
  path_cache_.erase(object);
  attribute_cache_.erase(
      attribute_cache_.lower_bound(std::make_pair(object, xbase::Symbol{0})),
      attribute_cache_.upper_bound(std::make_pair(object, xbase::kNoSymbol)));
}

Object* Toolkit::FindObject(xproto::WindowId window) const {
  auto it = registry_.find(window);
  return it == registry_.end() ? nullptr : it->second;
}

Object* Toolkit::TreeRootOf(const Object& object) const {
  const Object* cur = &object;
  while (cur->parent() != nullptr) {
    cur = cur->parent();
  }
  return const_cast<Object*>(cur);
}

void Toolkit::SetTreePrefix(const Object* tree_root, std::vector<std::string> names,
                            std::vector<std::string> classes) {
  XB_CHECK_EQ(names.size(), classes.size());
  tree_prefixes_[tree_root] = {std::move(names), std::move(classes)};
  // The whole tree's query paths changed; prefix changes are rare (one per
  // decoration build / stickiness toggle), so a full drop keeps this simple.
  InvalidateQueryCaches();
}

const std::pair<std::vector<std::string>, std::vector<std::string>>* Toolkit::TreePrefix(
    const Object* tree_root) const {
  auto it = tree_prefixes_.find(tree_root);
  return it == tree_prefixes_.end() ? nullptr : &it->second;
}

const Toolkit::InternedPath& Toolkit::PathFor(const Object& object) const {
  auto it = path_cache_.find(&object);
  if (it != path_cache_.end()) {
    return it->second;
  }
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  InternedPath path;
  path.names = prefix_name_symbols_;
  path.classes = prefix_class_symbols_;
  const auto* tree_prefix = TreePrefix(TreeRootOf(object));
  if (tree_prefix != nullptr) {
    for (const std::string& name : tree_prefix->first) {
      path.names.push_back(interner.Intern(name));
    }
    for (const std::string& clazz : tree_prefix->second) {
      path.classes.push_back(interner.Intern(clazz));
    }
  }
  for (const std::string& name : object.path_names()) {
    path.names.push_back(interner.Intern(name));
  }
  for (const std::string& clazz : object.path_classes()) {
    path.classes.push_back(interner.Intern(clazz));
  }
  return path_cache_.emplace(&object, std::move(path)).first->second;
}

xbase::Symbol Toolkit::CapitalizedSymbol(xbase::Symbol attribute) const {
  auto it = capitalized_.find(attribute);
  if (it != capitalized_.end()) {
    return it->second;
  }
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  xbase::Symbol result = interner.Intern(Capitalized(interner.NameOf(attribute)));
  capitalized_.emplace(attribute, result);
  return result;
}

std::optional<std::string> Toolkit::QueryAttribute(const Object& object,
                                                   const std::string& attribute) const {
  ++query_stats_.queries;
  // Any database mutation moved the generation; stale memo entries go.
  // (Interned paths only depend on prefixes, which invalidate eagerly.)
  if (resources_->generation() != seen_generation_) {
    attribute_cache_.clear();
    seen_generation_ = resources_->generation();
  }
  xbase::Symbol attr = xbase::SymbolInterner::Global().Intern(attribute);
  const auto key = std::make_pair(&object, attr);
  if (auto it = attribute_cache_.find(key); it != attribute_cache_.end()) {
    ++query_stats_.cache_hits;
    return it->second;
  }
  const InternedPath& path = PathFor(object);
  scratch_names_.assign(path.names.begin(), path.names.end());
  scratch_classes_.assign(path.classes.begin(), path.classes.end());
  scratch_names_.push_back(attr);
  scratch_classes_.push_back(CapitalizedSymbol(attr));
  ++query_stats_.trie_lookups;
  std::optional<std::string> value =
      resources_->Get(std::span<const xbase::Symbol>(scratch_names_),
                      std::span<const xbase::Symbol>(scratch_classes_));
  attribute_cache_.emplace(key, value);
  return value;
}

std::unique_ptr<Panel> Toolkit::BuildPanelTree(const std::string& panel_name,
                                               xproto::WindowId parent_window,
                                               const DefinitionLookup& definition_lookup,
                                               std::vector<std::string> prefix_names,
                                               std::vector<std::string> prefix_classes) {
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
    SetTreePrefix(root.get(), std::move(prefix_names), std::move(prefix_classes));
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
