// Core X protocol value types shared by the server simulator and the client
// library.  Names mirror the X11 protocol specification.
#ifndef SRC_XPROTO_TYPES_H_
#define SRC_XPROTO_TYPES_H_

#include <cstdint>
#include <string>

namespace xproto {

using WindowId = uint32_t;
using AtomId = uint32_t;
using ClientId = uint32_t;
using Timestamp = uint64_t;
using KeySym = uint32_t;

inline constexpr WindowId kNone = 0;
inline constexpr AtomId kAtomNone = 0;

// Window ids are chosen by the client, as in X (docs/PROTOCOL.md "Window
// ids").  Each connection holds an id slot; its base is slot << kIdSlotShift
// and it names its windows base | n for n <= kIdMask.  Slot 0 is the
// server's (the roots), so client slots run from 1 to kIdSlots - 1.
inline constexpr int kIdSlotShift = 21;
inline constexpr WindowId kIdMask = (WindowId{1} << kIdSlotShift) - 1;
inline constexpr uint32_t kIdSlots = uint32_t{1} << (32 - kIdSlotShift);

// Hard protocol limit on coordinates/extents (signed 16-bit on the wire);
// this is the source of the paper's 32767x32767 Virtual Desktop ceiling.
inline constexpr int kMaxCoordinate = 32767;

enum class WindowClass : uint8_t {
  kInputOutput,
  kInputOnly,
};

enum class MapState : uint8_t {
  kUnmapped,
  kUnviewable,  // Mapped but an ancestor is unmapped.
  kViewable,
};

enum class StackMode : uint8_t {
  kAbove,
  kBelow,
  kTopIf,
  kBottomIf,
  kOpposite,
};

enum class BitGravity : uint8_t {
  kForget,
  kNorthWest,
  kStatic,
};

// ICCCM WM_STATE values.
enum class WmState : uint32_t {
  kWithdrawn = 0,
  kNormal = 1,
  kIconic = 3,
};

// Event selection mask bits (subset relevant to window management).
enum EventMask : uint32_t {
  kNoEventMask = 0,
  kKeyPressMask = 1u << 0,
  kKeyReleaseMask = 1u << 1,
  kButtonPressMask = 1u << 2,
  kButtonReleaseMask = 1u << 3,
  kEnterWindowMask = 1u << 4,
  kLeaveWindowMask = 1u << 5,
  kPointerMotionMask = 1u << 6,
  kExposureMask = 1u << 15,
  kStructureNotifyMask = 1u << 17,
  kResizeRedirectMask = 1u << 18,
  kSubstructureNotifyMask = 1u << 19,
  kSubstructureRedirectMask = 1u << 20,
  kFocusChangeMask = 1u << 21,
  kPropertyChangeMask = 1u << 22,
  kColormapChangeMask = 1u << 23,
};

enum class ModifierMask : uint32_t {
  kNone = 0,
  kShift = 1u << 0,
  kControl = 1u << 2,
  kMod1 = 1u << 3,  // Typically Meta/Alt.
};

inline uint32_t operator|(ModifierMask a, ModifierMask b) {
  return static_cast<uint32_t>(a) | static_cast<uint32_t>(b);
}

// Values of a ConfigureRequest's value_mask.
enum ConfigureMask : uint16_t {
  kConfigX = 1u << 0,
  kConfigY = 1u << 1,
  kConfigWidth = 1u << 2,
  kConfigHeight = 1u << 3,
  kConfigBorderWidth = 1u << 4,
  kConfigSibling = 1u << 5,
  kConfigStackMode = 1u << 6,
};

// Property change notifications.
enum class PropertyState : uint8_t {
  kNewValue,
  kDeleted,
};

// Pointer buttons are numbered 1..5 as in the protocol.
inline constexpr int kMaxButton = 5;

std::string WmStateName(WmState state);

}  // namespace xproto

#endif  // SRC_XPROTO_TYPES_H_
