// X11 binary wire encoding for the request/event/error subset this
// reproduction implements (docs/PROTOCOL.md).
//
// Built adversarial-input-first: the decoder assumes every byte was written
// by a hostile client.  WireReader is a zero-copy, bounds-checked cursor —
// it never reads past the buffer it was given, and any overrun attempt
// latches a failure flag instead of invoking UB.  Every length field is
// checked against both the frame and a hard cap before it is trusted, and a
// malformed message decodes to a typed ParseError, never a crash.  The
// fuzz gate (tests/wire_fuzz_test.cc, tools/fuzz_wire.cc) holds the decoder
// to that contract under ASan+UBSan.
//
// Framing follows core X11: requests are [opcode u8][detail u8][length u16
// in 4-byte units, header included][payload]; events and errors are fixed
// 32-byte frames.  All integers are little-endian on this wire.
#ifndef SRC_XPROTO_WIRE_H_
#define SRC_XPROTO_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/base/geometry.h"
#include "src/xproto/error.h"
#include "src/xproto/events.h"
#include "src/xproto/types.h"

namespace xproto {

// ---- Limits -----------------------------------------------------------------

// Hard cap on a single request frame.  The length field could name up to
// 256KB (65535 * 4); nothing in our subset legitimately needs more than a
// ChangeProperty carrying a capped payload, so anything above this is
// rejected as kOversized before a single payload byte is trusted.
inline constexpr size_t kMaxRequestBytes = 16384;
// Fixed size of an event or error frame, as in core X11.
inline constexpr size_t kEventWireBytes = 32;
// Caps on variable-length request fields (checked before allocation).
inline constexpr size_t kMaxWireStringBytes = 4096;
inline constexpr size_t kMaxWireRects = 1024;
inline constexpr size_t kMaxWireBitmapCells = 1 << 16;
// Replies are 32-byte-minimum frames; the length field counts 4-byte units
// beyond the fixed 32 bytes.  Whole-frame cap checked before the length
// field is trusted, plus per-field caps checked before allocation.
inline constexpr size_t kMinReplyBytes = 32;
inline constexpr size_t kMaxReplyBytes = 1 << 20;
inline constexpr size_t kMaxReplyChildren = 1 << 16;
inline constexpr size_t kMaxReplyPropertyBytes = 1 << 18;

// ---- Parse errors -----------------------------------------------------------

enum class ParseErrorCode : uint8_t {
  kTruncated,    // Buffer ends before the frame (or its header) does.
  kBadOpcode,    // Major opcode / event code not in the implemented subset.
  kBadLength,    // Frame length field inconsistent with the payload present.
  kOversized,    // Frame or embedded length field exceeds its hard cap.
  kBadValue,     // A field holds a value outside its legal range.
};

// A rejected message.  `offset` is the byte offset of the offending frame in
// the buffer handed to the decoder, so a trace/corpus failure pinpoints the
// exact input bytes.
struct ParseError {
  ParseErrorCode code = ParseErrorCode::kTruncated;
  size_t offset = 0;
  uint8_t opcode = 0;  // Major opcode of the frame (0 if not yet readable).
  std::string detail;  // Human-readable, for logs and test output.
};

std::string ParseErrorCodeName(ParseErrorCode code);
// "BadLength at offset 12 (opcode 18): property data overruns frame" — logs.
std::string ParseErrorText(const ParseError& error);

// ---- Bounds-checked cursor types -------------------------------------------

// Zero-copy reader: a cursor over caller-owned bytes.  All accessors check
// bounds first; an out-of-range read latches ok() == false and returns 0 (or
// an empty span) without touching memory past the end.  Callers check ok()
// once after a run of reads — failed reads are sticky and side-effect free.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t offset() const { return offset_; }
  size_t remaining() const { return ok_ ? data_.size() - offset_ : 0; }

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int16_t I16() { return static_cast<int16_t>(U16()); }
  int32_t I32() { return static_cast<int32_t>(U32()); }

  // `count` bytes without copying, or an empty span (and ok() == false) if
  // fewer remain.
  std::span<const uint8_t> Bytes(size_t count);
  // A counted string (bytes are copied out of the buffer here, at the edge).
  std::string String(size_t count);
  void Skip(size_t count);
  // Skips padding up to the next 4-byte boundary relative to buffer start.
  void AlignSkip();

 private:
  std::span<const uint8_t> data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

// Append-only little-endian writer.
class WireWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I16(int16_t v) { U16(static_cast<uint16_t>(v)); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Bytes(std::span<const uint8_t> data);
  void String(const std::string& s);  // Raw bytes, no count prefix.
  // Zero padding up to the next 4-byte boundary.
  void AlignPad();
  // Overwrites 2 already-written bytes (length/sequence back-patching).
  void PatchU16(size_t offset, uint16_t v);
  // Overwrites 4 already-written bytes (reply length back-patching).
  void PatchU32(size_t offset, uint32_t v);

  // Opens a request frame: writes opcode/detail, reserves the length field.
  // CloseRequest pads to 4 bytes and patches the length.  One frame at a
  // time; frames may not nest.
  void BeginRequest(uint8_t opcode, uint8_t detail);
  void CloseRequest();

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::span<const uint8_t> span() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }
  void Clear() { bytes_.clear(); }

 private:
  std::vector<uint8_t> bytes_;
  size_t frame_start_ = SIZE_MAX;  // SIZE_MAX = no open frame.
};

// ---- Request objects --------------------------------------------------------

// Major opcodes.  Core requests reuse the real X11 numbers so a wire dump
// reads familiarly; simulator-specific requests (drawing into the ASCII
// canvas, SHAPE ops folded into one extension-style block) sit above 127.
enum class WireOpcode : uint8_t {
  kCreateWindow = 1,
  kGetWindowAttributes = 3,
  kDestroyWindow = 4,
  kChangeSaveSet = 6,
  kReparentWindow = 7,
  kMapWindow = 8,
  kUnmapWindow = 10,
  kConfigureWindow = 12,
  kSelectInput = 14,   // ChangeWindowAttributes(event-mask) in real X.
  kQueryTree = 15,
  kInternAtom = 16,
  kGetAtomName = 17,
  kChangeProperty = 18,
  kDeleteProperty = 19,
  kGetProperty = 20,
  kSendEvent = 25,
  kGrabButton = 28,
  kUngrabButton = 29,
  kQueryPointer = 38,
  kTranslateCoordinates = 40,
  kWarpPointer = 41,
  kSetInputFocus = 42,
  kGetInputFocus = 43,
  kClearWindow = 61,   // ClearArea in real X.
  // Simulator-specific (>= 128, the extension opcode range).
  kSetWindowBackground = 128,
  kSetCursor = 129,
  kDraw = 130,
  kShapeRegion = 131,
  kShapeClear = 132,
  kShapeSelect = 133,
  // Real X numbers GetGeometry 14, which kSelectInput occupies here; it
  // lives in the extension range instead (docs/PROTOCOL.md "Replies").
  kGetGeometry = 134,
  // The screen table and id range a remote Display learns at connect
  // (docs/PROTOCOL.md "Out-of-process operation"), and the largest free run
  // of the client's id range, asked for once the range is spent (XC-MISC's
  // GetXIDRange; docs/PROTOCOL.md "Window ids").
  kQueryScreens = 135,
  kGetIdRange = 136,
  // SHAPE's GetRectangles: the bounding shape, one query for IsShaped and
  // GetShape.
  kShapeGetRectangles = 137,
};

// `window` is the id the client chose for the new window (X's wid): it must
// lie in the client's range and be unused, or the server raises BadIDChoice.
struct CreateWindowRequest {
  WindowId window = kNone;
  WindowId parent = kNone;
  xbase::Rect geometry;
  int border_width = 0;
  WindowClass window_class = WindowClass::kInputOutput;
  bool override_redirect = false;
  friend bool operator==(const CreateWindowRequest&, const CreateWindowRequest&) = default;
};

struct DestroyWindowRequest {
  WindowId window = kNone;
  friend bool operator==(const DestroyWindowRequest&, const DestroyWindowRequest&) = default;
};

struct MapWindowRequest {
  WindowId window = kNone;
  friend bool operator==(const MapWindowRequest&, const MapWindowRequest&) = default;
};

struct UnmapWindowRequest {
  WindowId window = kNone;
  friend bool operator==(const UnmapWindowRequest&, const UnmapWindowRequest&) = default;
};

struct ReparentWindowRequest {
  WindowId window = kNone;
  WindowId parent = kNone;
  xbase::Point position;
  friend bool operator==(const ReparentWindowRequest&, const ReparentWindowRequest&) = default;
};

// Mask-conditional VALUE list exactly as in core X11: only fields named in
// `value_mask` travel on the wire, each as one 4-byte slot — which makes the
// length field honest work to validate (and a favorite target of the
// length-lie fault).
struct ConfigureWindowRequest {
  WindowId window = kNone;
  uint16_t value_mask = 0;
  xbase::Rect geometry;
  int border_width = 0;
  WindowId sibling = kNone;
  StackMode stack_mode = StackMode::kAbove;
  friend bool operator==(const ConfigureWindowRequest&, const ConfigureWindowRequest&) = default;
};

struct SelectInputRequest {
  WindowId window = kNone;
  uint32_t event_mask = 0;
  friend bool operator==(const SelectInputRequest&, const SelectInputRequest&) = default;
};

struct ChangeSaveSetRequest {
  WindowId window = kNone;
  bool add = true;
  friend bool operator==(const ChangeSaveSetRequest&, const ChangeSaveSetRequest&) = default;
};

struct ChangePropertyRequest {
  WindowId window = kNone;
  AtomId property = kAtomNone;
  AtomId type = kAtomNone;
  int format = 8;      // 8, 16 or 32.
  uint8_t mode = 0;    // PropMode: 0 replace, 1 append, 2 prepend.
  std::vector<uint8_t> data;
  friend bool operator==(const ChangePropertyRequest&, const ChangePropertyRequest&) = default;
};

struct DeletePropertyRequest {
  WindowId window = kNone;
  AtomId property = kAtomNone;
  friend bool operator==(const DeletePropertyRequest&, const DeletePropertyRequest&) = default;
};

struct SendEventRequest {
  WindowId destination = kNone;
  uint32_t event_mask = 0;
  Event event;  // Travels as an embedded 32-byte event frame.
  friend bool operator==(const SendEventRequest&, const SendEventRequest&) = default;
};

struct SetInputFocusRequest {
  WindowId window = kNone;
  friend bool operator==(const SetInputFocusRequest&, const SetInputFocusRequest&) = default;
};

struct GrabButtonRequest {
  WindowId window = kNone;
  int button = 0;  // 0 = AnyButton.
  uint32_t modifiers = 0;
  uint32_t event_mask = 0;
  friend bool operator==(const GrabButtonRequest&, const GrabButtonRequest&) = default;
};

struct UngrabButtonRequest {
  WindowId window = kNone;
  int button = 0;
  uint32_t modifiers = 0;
  friend bool operator==(const UngrabButtonRequest&, const UngrabButtonRequest&) = default;
};

struct ClearWindowRequest {
  WindowId window = kNone;
  friend bool operator==(const ClearWindowRequest&, const ClearWindowRequest&) = default;
};

struct SetWindowBackgroundRequest {
  WindowId window = kNone;
  char background = ' ';
  friend bool operator==(const SetWindowBackgroundRequest&,
                         const SetWindowBackgroundRequest&) = default;
};

struct SetCursorRequest {
  WindowId window = kNone;
  std::string name;
  friend bool operator==(const SetCursorRequest&, const SetCursorRequest&) = default;
};

// The display-list draw request.  kBitmap ops carry the bitmap as a
// counted cell array; text ops carry a counted string.
struct DrawRequest {
  WindowId window = kNone;
  uint8_t kind = 0;  // xserver::DrawOp::Kind, validated on decode.
  xbase::Rect rect;
  char fill = ' ';
  std::string text;
  int bitmap_width = 0;
  int bitmap_height = 0;
  std::vector<uint8_t> bitmap_cells;  // Row-major, one byte per cell (0/1).
  friend bool operator==(const DrawRequest&, const DrawRequest&) = default;
};

struct ShapeRegionRequest {
  WindowId window = kNone;
  std::vector<xbase::Rect> rects;
  friend bool operator==(const ShapeRegionRequest&, const ShapeRegionRequest&) = default;
};

struct ShapeClearRequest {
  WindowId window = kNone;
  friend bool operator==(const ShapeClearRequest&, const ShapeClearRequest&) = default;
};

struct ShapeSelectRequest {
  WindowId window = kNone;
  bool enable = true;
  friend bool operator==(const ShapeSelectRequest&, const ShapeSelectRequest&) = default;
};

// ---- Query requests (reply-bearing; docs/PROTOCOL.md "Replies") -------------

struct GetWindowAttributesRequest {
  WindowId window = kNone;
  friend bool operator==(const GetWindowAttributesRequest&,
                         const GetWindowAttributesRequest&) = default;
};

struct GetGeometryRequest {
  WindowId window = kNone;
  friend bool operator==(const GetGeometryRequest&, const GetGeometryRequest&) = default;
};

struct QueryTreeRequest {
  WindowId window = kNone;
  friend bool operator==(const QueryTreeRequest&, const QueryTreeRequest&) = default;
};

struct InternAtomRequest {
  std::string name;
  friend bool operator==(const InternAtomRequest&, const InternAtomRequest&) = default;
};

struct GetAtomNameRequest {
  AtomId atom = kAtomNone;
  friend bool operator==(const GetAtomNameRequest&, const GetAtomNameRequest&) = default;
};

struct GetPropertyRequest {
  WindowId window = kNone;
  AtomId property = kAtomNone;
  friend bool operator==(const GetPropertyRequest&, const GetPropertyRequest&) = default;
};

struct TranslateCoordinatesRequest {
  WindowId src = kNone;
  WindowId dst = kNone;
  xbase::Point point;
  friend bool operator==(const TranslateCoordinatesRequest&,
                         const TranslateCoordinatesRequest&) = default;
};

// Both are payload-free: they are about the issuing client's connection.
struct QueryScreensRequest {
  friend bool operator==(const QueryScreensRequest&, const QueryScreensRequest&) = default;
};

struct GetIdRangeRequest {
  friend bool operator==(const GetIdRangeRequest&, const GetIdRangeRequest&) = default;
};

// Payload-free, as the pointer and the focus are the server's.
struct QueryPointerRequest {
  friend bool operator==(const QueryPointerRequest&, const QueryPointerRequest&) = default;
};

struct GetInputFocusRequest {
  friend bool operator==(const GetInputFocusRequest&, const GetInputFocusRequest&) = default;
};

struct ShapeGetRectanglesRequest {
  WindowId window = kNone;
  friend bool operator==(const ShapeGetRectanglesRequest&,
                         const ShapeGetRectanglesRequest&) = default;
};

// Void: moves the pointer to `position` relative to `dst` (X's dst-window;
// a root names a screen).
struct WarpPointerRequest {
  WindowId dst = kNone;
  xbase::Point position;
  friend bool operator==(const WarpPointerRequest&, const WarpPointerRequest&) = default;
};

using Request = std::variant<
    CreateWindowRequest, DestroyWindowRequest, MapWindowRequest, UnmapWindowRequest,
    ReparentWindowRequest, ConfigureWindowRequest, SelectInputRequest, ChangeSaveSetRequest,
    ChangePropertyRequest, DeletePropertyRequest, SendEventRequest, SetInputFocusRequest,
    GrabButtonRequest, UngrabButtonRequest, ClearWindowRequest, SetWindowBackgroundRequest,
    SetCursorRequest, DrawRequest, ShapeRegionRequest, ShapeClearRequest, ShapeSelectRequest,
    GetWindowAttributesRequest, GetGeometryRequest, QueryTreeRequest, InternAtomRequest,
    GetAtomNameRequest, GetPropertyRequest, TranslateCoordinatesRequest,
    QueryScreensRequest, GetIdRangeRequest, QueryPointerRequest, GetInputFocusRequest,
    ShapeGetRectanglesRequest, WarpPointerRequest>;

// Wire opcode / human-readable name / error-channel RequestCode of a request.
WireOpcode RequestOpcode(const Request& request);
std::string WireRequestName(const Request& request);
RequestCode RequestCodeOf(const Request& request);
// RequestCode a raw opcode maps to (for error reports on frames that never
// decoded into a Request).  kNone for unknown opcodes.
RequestCode RequestCodeForOpcode(uint8_t opcode);
// True for the requests a Reply answers (the queries).
bool RequestHasReply(RequestCode code);

// ---- Request encode/decode --------------------------------------------------

// Appends one request frame to `writer`.
void EncodeRequest(const Request& request, WireWriter* writer);
// Convenience: one request as a fresh byte vector.
std::vector<uint8_t> EncodeRequestBytes(const Request& request);

// Decodes the frame at the front of `buffer`.  On success fills `*out` and
// returns the frame size in bytes (> 0).  On failure fills `*error` and
// returns 0; the buffer is untouched and no byte beyond it was read.
// Decoding is strict: the frame length must be exactly the padded size the
// request needs — a length field that lies in either direction is rejected.
size_t DecodeRequest(std::span<const uint8_t> buffer, Request* out, ParseError* error);

// ---- Reply objects ----------------------------------------------------------
//
// Replies travel as 32-byte-minimum frames, as in core X11:
//
//   [1][opcode u8][sequence u16][length u32][payload ...]
//
// with `length` counting the 4-byte units beyond the fixed 32 bytes.  One
// deviation from core X11, documented in docs/PROTOCOL.md: byte 1 carries
// the major opcode of the originating request instead of a reply-specific
// detail byte, so a reply frame is self-describing — DecodeReply, the
// fuzzers and the trace verifier can parse a captured stream without
// pairing it against a table of outstanding requests.

struct AttributesReply {
  WindowId window = kNone;
  WindowClass window_class = WindowClass::kInputOutput;
  MapState map_state = MapState::kUnmapped;
  bool override_redirect = false;
  uint32_t all_event_masks = 0;
  int border_width = 0;
  uint32_t your_event_mask = 0;  // The asking client's own selection.
  friend bool operator==(const AttributesReply&, const AttributesReply&) = default;
};

struct GeometryReply {
  WindowId window = kNone;
  xbase::Rect geometry;
  int border_width = 0;
  friend bool operator==(const GeometryReply&, const GeometryReply&) = default;
};

struct TreeReply {
  WindowId window = kNone;
  WindowId root = kNone;
  WindowId parent = kNone;
  std::vector<WindowId> children;  // Bottom-most first.
  friend bool operator==(const TreeReply&, const TreeReply&) = default;
};

// InternAtom.
struct AtomReply {
  AtomId atom = kAtomNone;
  friend bool operator==(const AtomReply&, const AtomReply&) = default;
};

struct AtomNameReply {
  AtomId atom = kAtomNone;
  std::string name;
  friend bool operator==(const AtomNameReply&, const AtomNameReply&) = default;
};

// GetProperty on a missing property is not an error in X; `found` carries
// the distinction (type/format/data are meaningful only when it is set).
struct PropertyReply {
  WindowId window = kNone;
  AtomId property = kAtomNone;
  bool found = false;
  AtomId type = kAtomNone;
  int format = 8;
  std::vector<uint8_t> data;
  friend bool operator==(const PropertyReply&, const PropertyReply&) = default;
};

struct CoordinatesReply {
  xbase::Point position;
  friend bool operator==(const CoordinatesReply&, const CoordinatesReply&) = default;
};

// QueryScreens: the per-screen table a remote Display caches at connect so
// ScreenCount/RootWindow/DisplaySize/IsMonochrome need no further traffic,
// and the connection's resource-id base and mask, the fields of X's
// connection-setup reply (both 0 when the server had no id slot left).
struct ScreensReply {
  WindowId id_base = kNone;
  WindowId id_mask = 0;
  struct Screen {
    WindowId root = kNone;
    int width = 0;
    int height = 0;
    bool monochrome = false;
    friend bool operator==(const Screen&, const Screen&) = default;
  };
  std::vector<Screen> screens;
  friend bool operator==(const ScreensReply&, const ScreensReply&) = default;
};

// GetIdRange: the largest run of ids in the client's range that none of its
// windows uses, [start_id, start_id + count); count 0 when there is none.
struct IdRangeReply {
  WindowId start_id = kNone;
  uint32_t count = 0;
  friend bool operator==(const IdRangeReply&, const IdRangeReply&) = default;
};

// QueryPointer: the pointer's screen and position, the deepest viewable
// window under it, and the buttons held (bit i-1 for button i).
struct PointerReply {
  int screen = 0;
  xbase::Point root_pos;
  WindowId window = kNone;
  uint32_t buttons_down = 0;
  friend bool operator==(const PointerReply&, const PointerReply&) = default;
};

// GetInputFocus: kNone is pointer-root focus.
struct FocusReply {
  WindowId window = kNone;
  friend bool operator==(const FocusReply&, const FocusReply&) = default;
};

// ShapeGetRectangles: the bounding shape's rectangles when `shaped`.  The
// server refuses a shape of more than kMaxWireRects rectangles, so the list
// always fits.
struct ShapeRectanglesReply {
  WindowId window = kNone;
  bool shaped = false;
  std::vector<xbase::Rect> rects;
  friend bool operator==(const ShapeRectanglesReply&, const ShapeRectanglesReply&) = default;
};

using Reply = std::variant<AttributesReply, GeometryReply, TreeReply, AtomReply,
                           AtomNameReply, PropertyReply, CoordinatesReply,
                           ScreensReply, IdRangeReply, PointerReply, FocusReply,
                           ShapeRectanglesReply>;

// Major opcode of the request a reply answers / human-readable name.
WireOpcode ReplyOpcode(const Reply& reply);
std::string WireReplyName(const Reply& reply);

// ---- Reply encode/decode ----------------------------------------------------

// Appends one reply frame to `writer` (sequence = the issuing connection's
// request sequence number, truncated to 16 bits as on the wire).
// Variable-length fields are clamped to their decode caps
// (kMaxReplyChildren / kMaxReplyPropertyBytes / kMaxWireStringBytes) so
// every encoded reply decodes.
void EncodeReply(const Reply& reply, uint16_t sequence, WireWriter* writer);
std::vector<uint8_t> EncodeReplyBytes(const Reply& reply, uint16_t sequence = 0);

// Decodes the reply frame at the front of `buffer`.  Same contract and
// strictness as DecodeRequest: on success fills `*out` (and `*sequence` if
// non-null) and returns the frame size; on failure fills `*error` and
// returns 0 having read no byte beyond the buffer.
size_t DecodeReply(std::span<const uint8_t> buffer, Reply* out, ParseError* error,
                   uint16_t* sequence = nullptr);

// ---- Event encode/decode ----------------------------------------------------

// Appends the fixed 32-byte frame for `event` (sequence = the delivering
// connection's request sequence number, truncated to 16 bits as on the wire).
void EncodeEvent(const Event& event, uint16_t sequence, WireWriter* writer);
std::vector<uint8_t> EncodeEventBytes(const Event& event, uint16_t sequence = 0);

// Decodes one 32-byte event frame.  Returns kEventWireBytes on success.
size_t DecodeEvent(std::span<const uint8_t> buffer, Event* out, ParseError* error,
                   uint16_t* sequence = nullptr);

// ---- Error encode/decode ----------------------------------------------------

// Errors travel as 32-byte frames whose first byte is 0, as in core X11.
void EncodeError(const XError& error, WireWriter* writer);
size_t DecodeError(std::span<const uint8_t> buffer, XError* out, ParseError* parse_error);

}  // namespace xproto

#endif  // SRC_XPROTO_WIRE_H_
