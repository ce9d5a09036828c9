// Retained-mode frame scheduling (docs/RENDERING.md).
//
// Objects no longer lay out and repaint eagerly at every mutation.  Setters
// call Object::Invalidate, which records the dirty subtree root and the
// dirty object here; FlushFrame() then runs one layout pass over the dirty
// roots, folds the damaged rectangles into an xbase::Region per tree, and
// reissues each damaged object's draw list exactly once, however many
// invalidations hit it since the previous flush.  LayOut() runs the layout
// pass alone, for callers that read geometry before the batch's FlushFrame.
//
// The flush path is allocation-free in steady state: the pending queues are
// flat vectors whose buffers are recycled across frames, and the per-root
// damage regions live in a pooled slot arena (`RootDamage`) whose banded
// rect storage is reused frame after frame instead of being rebuilt from a
// map of rect vectors.  Each object's damage contribution is clipped to its
// tree root's bounds with a plain rect intersection before any region work
// happens; an object that clips out entirely keeps its dirty bit and stays
// queued (its draw list is not touched until it can produce pixels).
#ifndef SRC_OI_FRAME_H_
#define SRC_OI_FRAME_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/geometry.h"
#include "src/base/region.h"

namespace oi {

class Object;

class FrameScheduler {
 public:
  // Cumulative instrumentation since the last ResetStats.
  struct Stats {
    uint64_t frames = 0;           // Flushes that did work.
    uint64_t layouts = 0;          // Subtree layout passes.
    uint64_t objects_painted = 0;  // Draw lists reissued, via any paint path.
    uint64_t invalidations = 0;    // Invalidate() calls reaching the scheduler.
    uint64_t expose_rects = 0;     // Expose rectangles folded into damage.
    uint64_t damage_area = 0;      // Cells covered by flushed damage regions
                                   // (clipped to tree bounds; saturating).
  };

  // Called after each dirty root's layout pass; swm uses it to pin floating
  // resize-corner handles to the frame edges.
  using LayoutObserver = std::function<void(Object* tree_root)>;

  // ---- Invalidation intake (called via Object::Invalidate) -----------------
  void MarkDirty(Object* object, uint8_t kinds, Object* tree_root);
  // Expose handling: the window-relative rectangle joins the damage region
  // and the object repaints at the next flush.
  void AddExposeDamage(Object* object, const xbase::Rect& area);
  // Object destruction: drop every pending reference.
  void ForgetObject(Object* object);

  // ---- Frame flush ---------------------------------------------------------
  // Lays out every dirty subtree root, calling the layout observer after
  // each; the paint dirt it adds waits for the next FlushFrame.
  void LayOut();
  // LayOut(), then paints each damaged object exactly once.  Both are no-ops
  // while flushing; FlushFrame also with nothing pending.
  void FlushFrame();
  bool HasPendingWork() const {
    return !layout_roots_.empty() || !paint_objects_.empty() || !expose_rects_.empty();
  }

  void SetLayoutObserver(LayoutObserver observer) { layout_observer_ = std::move(observer); }

  // Every draw-list reissue funnels through Object::Paint, which reports
  // here, so `objects_painted` counts repaints from any caller.
  void NoteObjectPainted() { ++stats_.objects_painted; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }
  // Damage accumulated by the most recent flush alone (diagnostics/tests).
  uint64_t last_frame_damage_area() const { return last_frame_damage_area_; }

 private:
  // One pooled damage accumulator per dirty tree root.  Slots (and the
  // banded rect storage inside their Regions) are recycled across frames.
  struct RootDamage {
    Object* root = nullptr;
    xbase::Region damage;
  };

  xbase::Region& DamageFor(Object* root);

  std::vector<Object*> layout_roots_;
  std::vector<Object*> paint_objects_;
  std::vector<std::pair<Object*, xbase::Rect>> expose_rects_;
  // Recycled scratch buffers for the flush (capacity persists).
  std::vector<Object*> layout_scratch_;
  std::vector<Object*> paint_scratch_;
  std::vector<RootDamage> damage_slots_;
  size_t damage_slots_used_ = 0;
  LayoutObserver layout_observer_;
  bool in_flush_ = false;
  Stats stats_;
  uint64_t last_frame_damage_area_ = 0;
};

}  // namespace oi

#endif  // SRC_OI_FRAME_H_
