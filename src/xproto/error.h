// X protocol error model.  Requests against dead or invalid resources
// generate an XError on the issuing client's connection instead of silently
// failing — the classic window-manager hazard (a client destroys its window
// while the WM is mid-decoration) surfaces here as a BadWindow.
#ifndef SRC_XPROTO_ERROR_H_
#define SRC_XPROTO_ERROR_H_

#include <cstdint>
#include <string>

namespace xproto {

// Error codes (subset of the X11 core set a window manager encounters).
enum class ErrorCode : uint8_t {
  kBadWindow,          // Request named a window that does not exist.
  kBadMatch,           // Request parameters violate a structural constraint.
  kBadValue,           // A numeric argument is out of range.
  kBadAtom,            // Request named an invalid atom.
  kBadAccess,          // Another client already holds an exclusive selection/grab.
  kBadImplementation,  // Server-side injected failure (fault harness).
  kBadRequest,         // Wire frame named an opcode outside the implemented subset.
  kBadLength,          // Wire frame length field inconsistent with its payload.
  kBadIDChoice,        // CreateWindow id outside the client's range or in use.
};

// The request that produced an error (the major opcode on the wire).
enum class RequestCode : uint8_t {
  kNone,
  kCreateWindow,
  kDestroyWindow,
  kMapWindow,
  kUnmapWindow,
  kReparentWindow,
  kConfigureWindow,
  kSelectInput,
  kChangeSaveSet,
  kChangeProperty,
  kDeleteProperty,
  kSendEvent,
  kSetInputFocus,
  kGrabButton,
  kUngrabButton,
  kShapeOp,
  kSetWindowBackground,
  kSetCursor,
  kClearWindow,
  kDraw,
  // Reply-bearing queries (docs/PROTOCOL.md "Replies").  Appended so the
  // values of the codes above stay stable on the wire.
  kGetWindowAttributes,
  kGetGeometry,
  kQueryTree,
  kInternAtom,
  kGetAtomName,
  kGetProperty,
  kTranslateCoordinates,
  // Out-of-process connection-setup queries (docs/PROTOCOL.md
  // "Out-of-process operation").  Appended, same stability rule as above.
  kQueryScreens,
  kGetIdRange,
  // Pointer, focus and shape introspection, and the pointer warp.
  // Appended, same stability rule as above.
  kQueryPointer,
  kGetInputFocus,
  kShapeGetRectangles,
  kWarpPointer,
};

// Highest ErrorCode / RequestCode values (wire decoders validate against
// these bounds).
inline constexpr uint8_t kMaxErrorCode = static_cast<uint8_t>(ErrorCode::kBadIDChoice);
inline constexpr uint8_t kMaxRequestCode = static_cast<uint8_t>(RequestCode::kWarpPointer);

// One error report, delivered to the issuing client's error handler.  The
// sequence number is per-connection and counts requests, so a handler can
// correlate an error with the request that caused it.
struct XError {
  ErrorCode code = ErrorCode::kBadImplementation;
  RequestCode request = RequestCode::kNone;
  uint32_t resource_id = 0;  // Offending window/atom id, 0 if not applicable.
  uint64_t sequence = 0;     // Issuing client's request sequence number.
};

std::string ErrorCodeName(ErrorCode code);
std::string RequestCodeName(RequestCode code);
// "BadWindow on ReparentWindow (resource 42, seq 1207)" — for logs.
std::string ErrorText(const XError& error);

}  // namespace xproto

#endif  // SRC_XPROTO_ERROR_H_
