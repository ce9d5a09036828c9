#include "src/oi/frame.h"

#include <algorithm>
#include <utility>

#include "src/oi/object.h"
#include "src/oi/panel.h"

namespace oi {

namespace {

// Offset of an object's window within its tree root's window.
xbase::Point OffsetInTree(const Object* object) {
  xbase::Point offset{0, 0};
  for (const Object* cur = object; cur->parent() != nullptr; cur = cur->parent()) {
    offset.x += cur->geometry().x;
    offset.y += cur->geometry().y;
  }
  return offset;
}

}  // namespace

void FrameScheduler::MarkDirty(Object* object, uint8_t kinds, Object* tree_root) {
  ++stats_.invalidations;
  // Dirty bits double as queue membership: an object joins each queue at
  // most once between flushes, which is what makes "painted exactly once
  // per flush" hold under invalidation storms.
  if ((kinds & kLayoutDirty) != 0 && (tree_root->dirty_kinds_ & kLayoutDirty) == 0) {
    tree_root->dirty_kinds_ |= kLayoutDirty;
    layout_roots_.push_back(tree_root);
  }
  if ((kinds & kPaintDirty) != 0 && (object->dirty_kinds_ & kPaintDirty) == 0) {
    object->dirty_kinds_ |= kPaintDirty;
    paint_objects_.push_back(object);
  }
}

void FrameScheduler::AddExposeDamage(Object* object, const xbase::Rect& area) {
  ++stats_.expose_rects;
  expose_rects_.emplace_back(object, area);
  if ((object->dirty_kinds_ & kPaintDirty) == 0) {
    object->dirty_kinds_ |= kPaintDirty;
    paint_objects_.push_back(object);
  }
}

void FrameScheduler::ForgetObject(Object* object) {
  layout_roots_.erase(std::remove(layout_roots_.begin(), layout_roots_.end(), object),
                      layout_roots_.end());
  paint_objects_.erase(std::remove(paint_objects_.begin(), paint_objects_.end(), object),
                       paint_objects_.end());
  expose_rects_.erase(
      std::remove_if(expose_rects_.begin(), expose_rects_.end(),
                     [object](const auto& entry) { return entry.first == object; }),
      expose_rects_.end());
}

xbase::Region& FrameScheduler::DamageFor(Object* root) {
  // Dirty trees per flush number a handful (one per screen plus open icons
  // and menus), so a linear scan beats any associative container here and
  // keeps the slot pool trivially reusable.
  for (size_t i = 0; i < damage_slots_used_; ++i) {
    if (damage_slots_[i].root == root) {
      return damage_slots_[i].damage;
    }
  }
  if (damage_slots_used_ == damage_slots_.size()) {
    damage_slots_.emplace_back();
  }
  RootDamage& slot = damage_slots_[damage_slots_used_++];
  slot.root = root;
  slot.damage.Clear();  // Keeps the banded rect storage from prior frames.
  return slot.damage;
}

void FrameScheduler::LayOut() {
  // A nested call (from the layout observer) would swap layout_roots_ under
  // the loop below, which drains whatever that call would have laid out.
  if (in_flush_) {
    return;
  }
  in_flush_ = true;
  // Laying out resizes child windows, which marks them paint-dirty (and
  // occasionally marks further layout, e.g. a nested size-override change).
  while (!layout_roots_.empty()) {
    layout_scratch_.clear();
    layout_scratch_.swap(layout_roots_);
    for (Object* root : layout_scratch_) {
      root->dirty_kinds_ &= static_cast<uint8_t>(~kLayoutDirty);
      root->Layout();
      ++stats_.layouts;
      if (layout_observer_) {
        layout_observer_(root);
      }
    }
  }
  in_flush_ = false;
}

void FrameScheduler::FlushFrame() {
  if (in_flush_ || !HasPendingWork()) {
    return;
  }
  LayOut();  // First, so everything a layout pass invalidates joins this frame.
  in_flush_ = true;
  // Damage + paint phase.  Per tree, the union of every damaged object's
  // bounds plus any Expose rectangles accumulates into a pooled banded
  // Region, each contribution clipped to the tree root's bounds before any
  // region arithmetic runs.  Draw lists are per-window in this server, so
  // the object window is the repaint granularity.
  paint_scratch_.clear();
  paint_scratch_.swap(paint_objects_);
  for (Object* object : paint_scratch_) {
    const xbase::Rect& geo = object->geometry();
    if (geo.width <= 0 || geo.height <= 0) {
      // Zero-area objects clip out entirely; they repaint on their next
      // resize, which re-queues them.
      object->dirty_kinds_ &= static_cast<uint8_t>(~kPaintDirty);
      continue;
    }
    Object* root = object->TreeRoot();
    xbase::Rect bounds{0, 0, root->geometry().width, root->geometry().height};
    xbase::Point offset = OffsetInTree(object);
    xbase::Rect damage =
        xbase::Rect{offset.x, offset.y, geo.width, geo.height}.Intersection(bounds);
    if (object != root && damage.IsEmpty()) {
      // Entirely outside its tree's bounds: no pixels can result, so leave
      // the draw list untouched.  The object keeps its dirty bit and stays
      // queued, so a later flush repaints it once layout brings it back
      // into view — dropping it here would leave the server holding a
      // stale draw list.
      paint_objects_.push_back(object);
      continue;
    }
    object->dirty_kinds_ &= static_cast<uint8_t>(~kPaintDirty);
    DamageFor(root).UnionRect(damage);
    object->Paint();
  }
  for (const auto& [object, rect] : expose_rects_) {
    Object* root = object->TreeRoot();
    xbase::Rect bounds{0, 0, root->geometry().width, root->geometry().height};
    xbase::Point offset = OffsetInTree(object);
    xbase::Rect damage = rect.Translated(offset.x, offset.y).Intersection(bounds);
    if (!damage.IsEmpty()) {
      DamageFor(root).UnionRect(damage);
    }
  }
  expose_rects_.clear();
  last_frame_damage_area_ = 0;
  for (size_t i = 0; i < damage_slots_used_; ++i) {
    int64_t area = damage_slots_[i].damage.Area();
    if (area > 0) {
      last_frame_damage_area_ += static_cast<uint64_t>(area);
    }
    damage_slots_[i].root = nullptr;
  }
  damage_slots_used_ = 0;
  // Saturating: a counter wedged at max is better than one that wrapped.
  stats_.damage_area = (stats_.damage_area > UINT64_MAX - last_frame_damage_area_)
                           ? UINT64_MAX
                           : stats_.damage_area + last_frame_damage_area_;
  ++stats_.frames;
  in_flush_ = false;
}

}  // namespace oi
