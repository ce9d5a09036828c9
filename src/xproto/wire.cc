#include "src/xproto/wire.h"

#include <algorithm>
#include <array>
#include <concepts>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

namespace xproto {

namespace {

// Padded-to-4 size of `n` bytes.
constexpr size_t Pad4(size_t n) { return (n + 3u) & ~size_t{3}; }

}  // namespace

// ---- Parse-error text -------------------------------------------------------

std::string ParseErrorCodeName(ParseErrorCode code) {
  static constexpr const char* kNames[] = {"Truncated", "BadOpcode", "BadLength", "Oversized",
                                           "BadValue"};
  size_t index = static_cast<size_t>(code);
  return index < std::size(kNames) ? kNames[index] : "Truncated";
}

std::string ParseErrorText(const ParseError& error) {
  std::ostringstream out;
  out << ParseErrorCodeName(error.code) << " at offset " << error.offset << " (opcode "
      << static_cast<int>(error.opcode) << ")";
  if (!error.detail.empty()) {
    out << ": " << error.detail;
  }
  return out.str();
}

// ---- WireReader -------------------------------------------------------------

uint8_t WireReader::U8() {
  if (!ok_ || data_.size() - offset_ < 1) {
    ok_ = false;
    return 0;
  }
  return data_[offset_++];
}

uint16_t WireReader::U16() {
  if (!ok_ || data_.size() - offset_ < 2) {
    ok_ = false;
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[offset_]) |
               static_cast<uint16_t>(data_[offset_ + 1]) << 8;
  offset_ += 2;
  return v;
}

uint32_t WireReader::U32() {
  if (!ok_ || data_.size() - offset_ < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | data_[offset_ + static_cast<size_t>(i)];
  }
  offset_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!ok_ || data_.size() - offset_ < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | data_[offset_ + static_cast<size_t>(i)];
  }
  offset_ += 8;
  return v;
}

std::span<const uint8_t> WireReader::Bytes(size_t count) {
  if (!ok_ || data_.size() - offset_ < count) {
    ok_ = false;
    return {};
  }
  std::span<const uint8_t> view = data_.subspan(offset_, count);
  offset_ += count;
  return view;
}

std::string WireReader::String(size_t count) {
  std::span<const uint8_t> view = Bytes(count);
  return std::string(view.begin(), view.end());
}

void WireReader::Skip(size_t count) {
  if (!ok_ || data_.size() - offset_ < count) {
    ok_ = false;
    return;
  }
  offset_ += count;
}

void WireReader::AlignSkip() { Skip(Pad4(offset_) - offset_); }

// ---- WireWriter -------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  bytes_.push_back(static_cast<uint8_t>(v));
  bytes_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::Bytes(std::span<const uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void WireWriter::String(const std::string& s) {
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void WireWriter::AlignPad() {
  while (bytes_.size() % 4 != 0) {
    bytes_.push_back(0);
  }
}

void WireWriter::PatchU16(size_t offset, uint16_t v) {
  bytes_[offset] = static_cast<uint8_t>(v);
  bytes_[offset + 1] = static_cast<uint8_t>(v >> 8);
}

void WireWriter::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void WireWriter::BeginRequest(uint8_t opcode, uint8_t detail) {
  frame_start_ = bytes_.size();
  U8(opcode);
  U8(detail);
  U16(0);  // Length, patched by CloseRequest.
}

void WireWriter::CloseRequest() {
  AlignPad();
  size_t frame_bytes = bytes_.size() - frame_start_;
  PatchU16(frame_start_ + 2, static_cast<uint16_t>(frame_bytes / 4));
  frame_start_ = SIZE_MAX;
}

// ---- Message layouts --------------------------------------------------------
//
// Each message's wire layout is written once, as a `Body` run in both
// directions: a Writer appends the fields of a const message, a Reader fills
// a fresh one from a bounds-checked payload.  The field calls carry all the
// two directions must agree on (width, signedness, padding, value checks,
// list caps).  The frame functions at the end of the file add each frame
// kind's header and framing rules.  The field vocabulary:
//   U8/U16/U32(field[, check]), U64/I16/I32(field)   an integer slot; decode
//       holds the raw value to `check` before storing it
//   Pad(n)  zero bytes, skipped on decode
//   Detail(field[, check]), DetailNot(flag), DetailFlags(low, high)  the
//       header's detail byte: a value, an inverted flag, two flag bits
//   Pick(flag)  chooses between a message's two header codes
//   Count16/Count32(list, cap, what), Area(cells, w, h, cap, what)  a count
//   List(count, list[, count2, list2])  the items.  Decode holds each count to
//       its cap (kOversized), then all of them to the bytes left (kBadLength),
//       before it allocates; encoding a reply clamps each list to its cap.
//   Embedded(event)  a nested 32-byte event frame
// Decode checks values only while no read has overrun (a short payload is a
// length error whatever its bytes say), and keeps the first failure.

namespace {

constexpr uint64_t kUncapped = std::numeric_limits<uint64_t>::max();

// Checks on a raw wire value, each with its rejection text.
struct Range {
  uint64_t lo;
  uint64_t hi;
  const char* why;
  constexpr bool Valid(uint64_t v) const { return v >= lo && v <= hi; }
};

struct Format {
  static constexpr const char* why = "format not 8/16/32";
  constexpr bool Valid(uint64_t v) const { return v == 8 || v == 16 || v == 32; }
};

constexpr Range kAnyValue{0, kUncapped, ""};
constexpr Range Flag(const char* why) { return {0, 1, why}; }
constexpr Range kStackMode{0, static_cast<uint8_t>(StackMode::kOpposite),
                           "stack mode out of range"};
constexpr Range kConfigureMask{0, 0x7F, "unknown configure mask bits"};

// A list's element count as the wire carries it, and the cap decode holds it to.
struct Count {
  uint64_t n = 0;
  uint64_t cap = kUncapped;
  const char* what = "";
};

// The integer slots, shared by every Io; each Io implements Int<WireType>.
template <class Io>
class Fields {
 public:
  template <class T, class C = Range>
  void U8(T& v, C check = kAnyValue) {
    self().template Int<uint8_t>(v, check);
  }
  template <class T, class C = Range>
  void U16(T& v, C check = kAnyValue) {
    self().template Int<uint16_t>(v, check);
  }
  template <class T, class C = Range>
  void U32(T& v, C check = kAnyValue) {
    self().template Int<uint32_t>(v, check);
  }
  template <class T>
  void U64(T& v) {
    self().template Int<uint64_t>(v, kAnyValue);
  }
  template <class T>
  void I16(T& v) {
    self().template Int<int16_t>(v, kAnyValue);
  }
  template <class T>
  void I32(T& v) {
    self().template Int<int32_t>(v, kAnyValue);
  }

 private:
  Io& self() { return static_cast<Io&>(*this); }
};

// Sums the bytes a fixed-size layout occupies (a list element's size).
struct Sizer : Fields<Sizer> {
  size_t bytes = 0;
  template <class W, class T, class C>
  void Int(const T&, const C&) {
    bytes += sizeof(W);
  }
  void Pad(size_t n) { bytes += n; }
};

template <class Items>
uint64_t ElementBytes() {
  using T = typename Items::value_type;
  if constexpr (sizeof(T) == 1) {
    return 1;  // Byte strings travel as raw bytes.
  } else {
    Sizer sizer;
    T item{};
    Body(sizer, item);
    return sizer.bytes;
  }
}

// Appends a message.  The frame function writes the header; Detail and Pick
// patch its code and detail bytes.
class Writer : public Fields<Writer> {
 public:
  Writer(WireWriter* w, const uint8_t* codes, bool clamp = false)
      : w_(w), start_(w->bytes().size()), codes_(codes), head_{codes[0], 0}, clamp_(clamp) {}

  template <class W, class T, class C>
  void Int(const T& v, const C&) {
    auto u = static_cast<std::make_unsigned_t<W>>(v);
    for (size_t i = 0; i < sizeof(W); ++i) {
      w_->U8(static_cast<uint8_t>(u >> (8 * i)));
    }
  }
  void Pad(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      w_->U8(0);
    }
  }
  template <class T, class C = Range>
  void Detail(const T& v, C = kAnyValue) {
    SetHead(1, static_cast<uint8_t>(v));
  }
  void DetailNot(const bool& v, const char*) { SetHead(1, v ? 0 : 1); }
  void DetailFlags(const bool& low, const bool& high, const char*) {
    SetHead(1, static_cast<uint8_t>((low ? 1 : 0) | (high ? 2 : 0)));
  }
  void Pick(const bool& first) { SetHead(0, codes_[first ? 0 : 1]); }

  template <class Items>
  Count Count16(const Items& items, uint64_t cap, const char* what) {
    Count n = Clamped(items, cap, what);
    w_->U16(static_cast<uint16_t>(n.n));
    return n;
  }
  template <class Items>
  Count Count32(const Items& items, uint64_t cap, const char* what) {
    Count n = Clamped(items, cap, what);
    w_->U32(static_cast<uint32_t>(n.n));
    return n;
  }
  Count Area(const std::vector<uint8_t>& cells, int, int, uint64_t cap, const char* what) {
    return {cells.size(), cap, what};
  }
  template <class Items>
  void List(Count n, const Items& items) {
    Write(n.n, items);
  }
  template <class A, class B>
  void List(Count na, const A& a, Count nb, const B& b) {
    Write(na.n, a);
    Write(nb.n, b);
  }
  void Embedded(const Event& event) { EncodeEvent(event, 0, w_); }

 private:
  void SetHead(int i, uint8_t v) {
    head_[i] = v;
    w_->PatchU16(start_, static_cast<uint16_t>(head_[0] | head_[1] << 8));
  }
  template <class Items>
  Count Clamped(const Items& items, uint64_t cap, const char* what) const {
    return {clamp_ ? std::min<uint64_t>(items.size(), cap) : items.size(), cap, what};
  }
  template <class Items>
  void Write(uint64_t n, const Items& items) {
    if constexpr (sizeof(typename Items::value_type) == 1) {
      w_->Bytes({reinterpret_cast<const uint8_t*>(items.data()), static_cast<size_t>(n)});
    } else {
      for (uint64_t i = 0; i < n; ++i) {
        Body(*this, items[i]);
      }
    }
  }

  WireWriter* w_;
  size_t start_;
  const uint8_t* codes_;
  uint8_t head_[2];
  bool clamp_;
};

// Fills a message from one frame's payload.  Reads are bounds-checked by
// WireReader; the first failed check is the verdict.
class Reader : public Fields<Reader> {
 public:
  Reader(std::span<const uint8_t> payload, uint8_t code, uint8_t detail)
      : r_(payload), code_(code), detail_(detail) {}

  bool ok() const { return !failed_ && r_.ok(); }
  size_t offset() const { return r_.offset(); }
  // The first failed check, else `overrun` for a body that ran past its
  // payload.
  ParseError Error(uint8_t opcode, ParseErrorCode overrun, std::string why) const {
    return failed_ ? ParseError{fail_code_, 0, opcode, why_}
                   : ParseError{overrun, 0, opcode, std::move(why)};
  }

  const uint8_t* codes = nullptr;  // The message's header codes, for Pick.

  template <class W, class T, class C>
  void Int(T& v, const C& check) {
    std::make_unsigned_t<W> u = 0;
    std::span<const uint8_t> bytes = r_.Bytes(sizeof(W));  // Empty on overrun.
    for (size_t i = bytes.size(); i-- > 0;) {
      u = static_cast<decltype(u)>(u << 8 | bytes[i]);
    }
    Accept(static_cast<W>(u), v, check);
  }
  void Pad(size_t n) { r_.Skip(n); }
  template <class T, class C = Range>
  void Detail(T& v, C check = kAnyValue) {
    Accept(detail_, v, check);
  }
  void DetailNot(bool& v, const char* why) {
    if (Check(detail_ <= 1, ParseErrorCode::kBadValue, why)) v = detail_ == 0;
  }
  void DetailFlags(bool& low, bool& high, const char* why) {
    if (Check(detail_ <= 3, ParseErrorCode::kBadValue, why)) {
      low = (detail_ & 1) != 0;
      high = (detail_ & 2) != 0;
    }
  }
  void Pick(bool& first) { first = code_ == codes[0]; }

  template <class Items>
  Count Count16(const Items&, uint64_t cap, const char* what) {
    return {r_.U16(), cap, what};
  }
  template <class Items>
  Count Count32(const Items&, uint64_t cap, const char* what) {
    return {r_.U32(), cap, what};
  }
  Count Area(const std::vector<uint8_t>&, int width, int height, uint64_t cap,
             const char* what) {
    return {static_cast<uint64_t>(width) * static_cast<uint64_t>(height), cap, what};
  }
  template <class Items>
  void List(Count n, Items& items) {
    if (Capped(n) && Fits(n.n * ElementBytes<Items>(), n.what)) Read(n.n, items);
  }
  // Both caps first, then one overrun check for the two lists together.
  template <class A, class B>
  void List(Count na, A& a, Count nb, B& b) {
    if (Capped(na) && Capped(nb) &&
        Fits(na.n * ElementBytes<A>() + nb.n * ElementBytes<B>(), na.what)) {
      Read(na.n, a);
      Read(nb.n, b);
    }
  }
  void Embedded(Event& event) {
    std::span<const uint8_t> frame = r_.Bytes(kEventWireBytes);
    ParseError error;
    if (!r_.ok()) {
      Fail(ParseErrorCode::kTruncated, "embedded event frame short");
    } else if (DecodeEvent(frame, &event, &error) == 0) {
      Fail(error.code, "embedded event: " + error.detail);
    }
  }

 private:
  template <class W, class T, class C>
  void Accept(W raw, T& v, const C& check) {
    if (Check(check.Valid(static_cast<uint64_t>(raw)), ParseErrorCode::kBadValue, check.why)) {
      v = static_cast<T>(raw);
    }
  }
  bool Check(bool valid, ParseErrorCode code, const char* why, const char* suffix = "") {
    if (ok() && !valid) Fail(code, std::string(why) + suffix);
    return ok();
  }
  bool Capped(const Count& n) {
    return Check(n.n <= n.cap, ParseErrorCode::kOversized, n.what, " over cap");
  }
  bool Fits(uint64_t bytes, const char* what) {
    return Check(bytes <= r_.remaining(), ParseErrorCode::kBadLength, what, " overruns frame");
  }
  void Fail(ParseErrorCode code, std::string why) {
    if (!failed_) {
      failed_ = true;
      fail_code_ = code;
      why_ = std::move(why);
    }
  }
  template <class Items>
  void Read(uint64_t n, Items& items) {
    using T = typename Items::value_type;
    if constexpr (sizeof(T) == 1) {
      std::span<const uint8_t> bytes = r_.Bytes(n);
      items.assign(bytes.begin(), bytes.end());
    } else {
      items.reserve(n);
      for (uint64_t i = 0; i < n && ok(); ++i) {
        T item{};
        Body(*this, item);
        items.push_back(item);
      }
    }
  }

  WireReader r_;
  uint8_t code_;
  uint8_t detail_;
  bool failed_ = false;
  ParseErrorCode fail_code_ = ParseErrorCode::kBadValue;
  std::string why_;
};

// Header codes, RequestCode and name of each top-level message.
template <class T>
struct Meta;

// Declares T's layout: the function body after the macro, run with `io` a
// Writer, Reader or Sizer and `m` a T (const when encoding).
#define WIRE_BODY(T)                                 \
  template <class Io, class M>                       \
    requires std::same_as<std::remove_const_t<M>, T> \
  void Body([[maybe_unused]] Io& io, [[maybe_unused]] M& m)

#define WIRE_MESSAGE(T, REQUEST_CODE, ...)                    \
  template <>                                                 \
  struct Meta<T> {                                            \
    static constexpr uint8_t kCodes[] = {__VA_ARGS__};        \
    static constexpr RequestCode kRequestCode = REQUEST_CODE; \
    static constexpr const char* kName = #T;                  \
  };                                                          \
  WIRE_BODY(T)

#define WIRE_REQUEST(T, OPCODE, REQUEST_CODE) \
  WIRE_MESSAGE(T, RequestCode::REQUEST_CODE, static_cast<uint8_t>(WireOpcode::OPCODE))
// A reply's code is the opcode of the request it answers.
#define WIRE_REPLY(T, OPCODE) \
  WIRE_MESSAGE(T, RequestCode::kNone, static_cast<uint8_t>(WireOpcode::OPCODE))
// An event has one code, or two that a flag chooses between (Pick).
#define WIRE_EVENT(T, ...) WIRE_MESSAGE(T, RequestCode::kNone, __VA_ARGS__)

WIRE_BODY(WindowId) { io.U32(m); }  // A window-list element.

WIRE_BODY(xbase::Point) {
  io.I16(m.x);
  io.I16(m.y);
}

WIRE_BODY(xbase::Rect) {
  io.I16(m.x);
  io.I16(m.y);
  io.U16(m.width);
  io.U16(m.height);
}

// ---- Requests ----

WIRE_REQUEST(CreateWindowRequest, kCreateWindow, kCreateWindow) {
  io.Detail(m.window_class, Range{0, 1, "window class not 0/1"});
  io.U32(m.window);
  io.U32(m.parent);
  Body(io, m.geometry);
  io.U16(m.border_width);
  io.U8(m.override_redirect);  // Any nonzero byte decodes as set.
}

WIRE_REQUEST(DestroyWindowRequest, kDestroyWindow, kDestroyWindow) { io.U32(m.window); }

WIRE_REQUEST(MapWindowRequest, kMapWindow, kMapWindow) { io.U32(m.window); }

WIRE_REQUEST(UnmapWindowRequest, kUnmapWindow, kUnmapWindow) { io.U32(m.window); }

WIRE_REQUEST(ReparentWindowRequest, kReparentWindow, kReparentWindow) {
  io.U32(m.window);
  io.U32(m.parent);
  Body(io, m.position);
}

WIRE_REQUEST(ConfigureWindowRequest, kConfigureWindow, kConfigureWindow) {
  io.U32(m.window);
  io.U16(m.value_mask, kConfigureMask);
  io.Pad(2);
  // LISTofVALUE: one 4-byte slot per set mask bit, canonical order.
  if (m.value_mask & kConfigX) io.I32(m.geometry.x);
  if (m.value_mask & kConfigY) io.I32(m.geometry.y);
  if (m.value_mask & kConfigWidth) io.U32(m.geometry.width);
  if (m.value_mask & kConfigHeight) io.U32(m.geometry.height);
  if (m.value_mask & kConfigBorderWidth) io.U32(m.border_width);
  if (m.value_mask & kConfigSibling) io.U32(m.sibling);
  if (m.value_mask & kConfigStackMode) io.U32(m.stack_mode, kStackMode);
}

WIRE_REQUEST(SelectInputRequest, kSelectInput, kSelectInput) {
  io.U32(m.window);
  io.U32(m.event_mask);
}

WIRE_REQUEST(ChangeSaveSetRequest, kChangeSaveSet, kChangeSaveSet) {
  io.DetailNot(m.add, "save-set mode not 0/1");
  io.U32(m.window);
}

WIRE_REQUEST(ChangePropertyRequest, kChangeProperty, kChangeProperty) {
  io.Detail(m.mode, Range{0, 2, "property mode not 0/1/2"});
  io.U32(m.window);
  io.U32(m.property);
  io.U32(m.type);
  io.U8(m.format, Format{});
  io.Pad(3);
  // Bounded by the frame alone, which kMaxRequestBytes caps.
  io.List(io.Count32(m.data, kUncapped, "property data"), m.data);
}

WIRE_REQUEST(DeletePropertyRequest, kDeleteProperty, kDeleteProperty) {
  io.U32(m.window);
  io.U32(m.property);
}

WIRE_REQUEST(SendEventRequest, kSendEvent, kSendEvent) {
  io.U32(m.destination);
  io.U32(m.event_mask);
  io.Embedded(m.event);
}

WIRE_REQUEST(SetInputFocusRequest, kSetInputFocus, kSetInputFocus) { io.U32(m.window); }

WIRE_REQUEST(GrabButtonRequest, kGrabButton, kGrabButton) {
  io.Detail(m.button, Range{0, kMaxButton, "button out of range"});
  io.U32(m.window);
  io.U32(m.modifiers);
  io.U32(m.event_mask);
}

WIRE_REQUEST(UngrabButtonRequest, kUngrabButton, kUngrabButton) {
  io.Detail(m.button, Range{0, kMaxButton, "button out of range"});
  io.U32(m.window);
  io.U32(m.modifiers);
}

WIRE_REQUEST(ClearWindowRequest, kClearWindow, kClearWindow) { io.U32(m.window); }

WIRE_REQUEST(SetWindowBackgroundRequest, kSetWindowBackground, kSetWindowBackground) {
  io.U32(m.window);
  io.U8(m.background);
}

WIRE_REQUEST(SetCursorRequest, kSetCursor, kSetCursor) {
  io.U32(m.window);
  io.List(io.Count16(m.name, kMaxWireStringBytes, "cursor name"), m.name);
}

WIRE_REQUEST(DrawRequest, kDraw, kDraw) {
  io.Detail(m.kind, Range{0, 4, "draw kind out of range"});  // DrawOp::Kind has 5 values.
  io.U32(m.window);
  Body(io, m.rect);
  io.U8(m.fill);
  io.Pad(1);
  Count text = io.Count16(m.text, kMaxWireStringBytes, "draw text");
  io.U16(m.bitmap_width);
  io.U16(m.bitmap_height);
  Count cells = io.Area(m.bitmap_cells, m.bitmap_width, m.bitmap_height,
                        kMaxWireBitmapCells, "bitmap cells");
  io.List(text, m.text, cells, m.bitmap_cells);
}

WIRE_REQUEST(ShapeRegionRequest, kShapeRegion, kShapeOp) {
  io.U32(m.window);
  Count rects = io.Count16(m.rects, kMaxWireRects, "shape rects");
  io.Pad(2);
  io.List(rects, m.rects);
}

WIRE_REQUEST(ShapeClearRequest, kShapeClear, kShapeOp) { io.U32(m.window); }

WIRE_REQUEST(ShapeSelectRequest, kShapeSelect, kShapeOp) {
  io.Detail(m.enable, Flag("shape select flag not 0/1"));
  io.U32(m.window);
}

WIRE_REQUEST(GetWindowAttributesRequest, kGetWindowAttributes, kGetWindowAttributes) {
  io.U32(m.window);
}

WIRE_REQUEST(GetGeometryRequest, kGetGeometry, kGetGeometry) { io.U32(m.window); }

WIRE_REQUEST(QueryTreeRequest, kQueryTree, kQueryTree) { io.U32(m.window); }

WIRE_REQUEST(InternAtomRequest, kInternAtom, kInternAtom) {
  Count name = io.Count16(m.name, kMaxWireStringBytes, "atom name");
  io.Pad(2);
  io.List(name, m.name);
}

WIRE_REQUEST(GetAtomNameRequest, kGetAtomName, kGetAtomName) { io.U32(m.atom); }

WIRE_REQUEST(GetPropertyRequest, kGetProperty, kGetProperty) {
  io.U32(m.window);
  io.U32(m.property);
}

WIRE_REQUEST(TranslateCoordinatesRequest, kTranslateCoordinates, kTranslateCoordinates) {
  io.U32(m.src);
  io.U32(m.dst);
  Body(io, m.point);
}

WIRE_REQUEST(QueryScreensRequest, kQueryScreens, kQueryScreens) {}

WIRE_REQUEST(GetIdRangeRequest, kGetIdRange, kGetIdRange) {}

WIRE_REQUEST(QueryPointerRequest, kQueryPointer, kQueryPointer) {}

WIRE_REQUEST(GetInputFocusRequest, kGetInputFocus, kGetInputFocus) {}

WIRE_REQUEST(ShapeGetRectanglesRequest, kShapeGetRectangles, kShapeGetRectangles) {
  io.U32(m.window);
}

WIRE_REQUEST(WarpPointerRequest, kWarpPointer, kWarpPointer) {
  io.U32(m.dst);
  Body(io, m.position);
}

// ---- Replies ----

WIRE_REPLY(AttributesReply, kGetWindowAttributes) {
  io.U32(m.window);
  io.U8(m.window_class, Range{0, 1, "window class not 0/1"});
  io.U8(m.map_state, Range{0, 2, "map state out of range"});
  io.U8(m.override_redirect, Flag("override flag not 0/1"));
  io.Pad(1);
  io.U32(m.all_event_masks);
  io.U16(m.border_width);
  io.U32(m.your_event_mask);  // Last, so a zero mask encodes as before it existed.
}

WIRE_REPLY(GeometryReply, kGetGeometry) {
  io.U32(m.window);
  Body(io, m.geometry);
  io.U16(m.border_width);
}

WIRE_REPLY(TreeReply, kQueryTree) {
  io.U32(m.window);
  io.U32(m.root);
  io.U32(m.parent);
  io.List(io.Count32(m.children, kMaxReplyChildren, "child list"), m.children);
}

WIRE_REPLY(AtomReply, kInternAtom) { io.U32(m.atom); }

WIRE_REPLY(AtomNameReply, kGetAtomName) {
  io.U32(m.atom);
  io.List(io.Count16(m.name, kMaxWireStringBytes, "atom name"), m.name);
}

WIRE_REPLY(PropertyReply, kGetProperty) {
  io.U32(m.window);
  io.U32(m.property);
  io.U32(m.type);
  io.U8(m.format, Format{});
  io.U8(m.found, Flag("found flag not 0/1"));
  io.Pad(2);
  io.List(io.Count32(m.data, kMaxReplyPropertyBytes, "property data"), m.data);
}

WIRE_REPLY(CoordinatesReply, kTranslateCoordinates) {
  io.I32(m.position.x);
  io.I32(m.position.y);
}

WIRE_BODY(ScreensReply::Screen) {
  io.U32(m.root);
  io.U16(m.width);
  io.U16(m.height);
  io.U8(m.monochrome, Flag("monochrome flag not 0/1"));
  io.Pad(3);
}

WIRE_REPLY(ScreensReply, kQueryScreens) {
  io.U32(m.id_base);
  io.U32(m.id_mask);
  io.List(io.Count32(m.screens, kMaxReplyChildren, "screen list"), m.screens);
}

WIRE_REPLY(IdRangeReply, kGetIdRange) {
  io.U32(m.start_id);
  io.U32(m.count);
}

WIRE_REPLY(PointerReply, kQueryPointer) {
  io.U8(m.screen);
  io.Pad(3);
  io.I32(m.root_pos.x);
  io.I32(m.root_pos.y);
  io.U32(m.window);
  io.U32(m.buttons_down);
}

WIRE_REPLY(FocusReply, kGetInputFocus) { io.U32(m.window); }

WIRE_REPLY(ShapeRectanglesReply, kShapeGetRectangles) {
  io.U32(m.window);
  io.U8(m.shaped, Flag("shaped flag not 0/1"));
  io.Pad(1);
  io.List(io.Count16(m.rects, kMaxWireRects, "shape rects"), m.rects);
}

// ---- Events ----

// Event codes are core X11's; ShapeNotify uses the typical extension base.

WIRE_EVENT(ButtonEvent, 4, 5) {  // ButtonPress / ButtonRelease
  io.Pick(m.press);
  io.Detail(m.button, Range{1, kMaxButton, "button out of range"});
  io.U32(m.window);
  io.U32(m.subwindow);
  io.U32(m.modifiers);
  Body(io, m.root_pos);
  Body(io, m.pos);
  io.U64(m.time);
}

WIRE_EVENT(MotionEvent, 6) {
  io.U32(m.window);
  io.U32(m.subwindow);
  io.U32(m.modifiers);
  Body(io, m.root_pos);
  Body(io, m.pos);
  io.U64(m.time);
}

WIRE_EVENT(KeyEvent, 2, 3) {  // KeyPress / KeyRelease
  io.Pick(m.press);
  io.U32(m.window);
  io.U32(m.keysym);
  io.U32(m.modifiers);
  Body(io, m.root_pos);
  Body(io, m.pos);
  io.U64(m.time);
}

WIRE_EVENT(CrossingEvent, 7, 8) {  // EnterNotify / LeaveNotify
  io.Pick(m.enter);
  io.U32(m.window);
  Body(io, m.root_pos);
  Body(io, m.pos);
  io.U64(m.time);
}

WIRE_EVENT(ExposeEvent, 12) {
  io.U32(m.window);
  Body(io, m.area);
  io.I32(m.count);
}

WIRE_EVENT(CreateNotifyEvent, 16) {
  io.Detail(m.override_redirect, Flag("override flag not 0/1"));
  io.U32(m.parent);
  io.U32(m.window);
  Body(io, m.geometry);
}

WIRE_EVENT(DestroyNotifyEvent, 17) {
  io.U32(m.event_window);
  io.U32(m.window);
}

WIRE_EVENT(MapRequestEvent, 20) {
  io.U32(m.parent);
  io.U32(m.window);
}

WIRE_EVENT(MapNotifyEvent, 19) {
  io.Detail(m.override_redirect, Flag("override flag not 0/1"));
  io.U32(m.event_window);
  io.U32(m.window);
}

WIRE_EVENT(UnmapNotifyEvent, 18) {
  io.Detail(m.from_configure, Flag("from-configure flag not 0/1"));
  io.U32(m.event_window);
  io.U32(m.window);
}

WIRE_EVENT(ReparentNotifyEvent, 21) {
  io.Detail(m.override_redirect, Flag("override flag not 0/1"));
  io.U32(m.event_window);
  io.U32(m.window);
  io.U32(m.parent);
  Body(io, m.pos);
}

WIRE_EVENT(ConfigureRequestEvent, 23) {
  io.Detail(m.stack_mode, kStackMode);
  io.U32(m.parent);
  io.U32(m.window);
  io.U32(m.sibling);
  Body(io, m.geometry);
  io.I16(m.border_width);
  io.U16(m.value_mask, kConfigureMask);
}

WIRE_EVENT(ConfigureNotifyEvent, 22) {
  io.DetailFlags(m.override_redirect, m.synthetic, "flags beyond override|synthetic");
  io.U32(m.event_window);
  io.U32(m.window);
  io.U32(m.above_sibling);
  Body(io, m.geometry);
  io.I16(m.border_width);
}

WIRE_EVENT(CirculateRequestEvent, 27) {
  io.DetailNot(m.place_on_top, "place flag not 0/1");
  io.U32(m.parent);
  io.U32(m.window);
}

WIRE_EVENT(PropertyNotifyEvent, 28) {
  io.Detail(m.state, Flag("property state not 0/1"));
  io.U32(m.window);
  io.U32(m.atom);
  io.U64(m.time);
}

WIRE_EVENT(ClientMessageEvent, 33) {
  io.Detail(m.format, Format{});
  io.U32(m.window);
  io.U32(m.message_type);
  for (auto& word : m.data) {
    io.U32(word);
  }
}

WIRE_EVENT(FocusEvent, 9, 10) {  // FocusIn / FocusOut
  io.Pick(m.in);
  io.U32(m.window);
}

WIRE_EVENT(ShapeNotifyEvent, 64) {
  io.Detail(m.shaped, Flag("shaped flag not 0/1"));
  io.U32(m.window);
  Body(io, m.extents);
}

// ---- Errors ----

// The frame is [0][code][sequence u16] and this body.
WIRE_BODY(XError) {
  io.Detail(m.code, Range{0, kMaxErrorCode, "error code out of range"});
  io.U32(m.resource_id);
  io.U64(m.sequence);
  io.U8(m.request, Range{0, kMaxRequestCode, "request code out of range"});
}

#undef WIRE_EVENT
#undef WIRE_REPLY
#undef WIRE_REQUEST
#undef WIRE_MESSAGE
#undef WIRE_BODY

// ---- Tables derived from the declarations ----

// Calls fn(std::type_identity<T>{}) for each alternative T of Variant.
template <class Variant, class Fn>
constexpr void ForEachAlternative(Fn fn) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (fn(std::type_identity<std::variant_alternative_t<I, Variant>>{}), ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

template <class Variant>
using DecodeFn = void (*)(Reader&, Variant*);

template <class Variant, class T>
void DecodeAs(Reader& io, Variant* out) {
  io.codes = Meta<T>::kCodes;
  Body(io, out->template emplace<T>());
}

// A variant's decoders by leading code (request opcode, reply opcode, or
// event code); null where no alternative declares the code.
template <class Variant>
constexpr std::array<DecodeFn<Variant>, 256> kDecoders = [] {
  std::array<DecodeFn<Variant>, 256> table{};
  ForEachAlternative<Variant>([&]<class T>(std::type_identity<T>) {
    for (uint8_t code : Meta<T>::kCodes) {
      table[code] = &DecodeAs<Variant, T>;
    }
  });
  return table;
}();

constexpr std::array<RequestCode, 256> kRequestCodes = [] {
  std::array<RequestCode, 256> table{};  // RequestCode::kNone throughout.
  ForEachAlternative<Request>([&]<class T>(std::type_identity<T>) {
    table[Meta<T>::kCodes[0]] = Meta<T>::kRequestCode;
  });
  return table;
}();

// Decodes a request or reply frame whose payload starts at `header`: the
// layout its opcode declares, then strict framing.  False with *error set.
template <class Variant>
bool DecodeFrame(std::span<const uint8_t> frame, size_t header, size_t floor, uint8_t opcode,
                 uint8_t detail, const char* kind, Variant* out, ParseError* error) {
  DecodeFn<Variant> decode = kDecoders<Variant>[opcode];
  if (decode == nullptr) {
    *error = ParseError{ParseErrorCode::kBadOpcode, 0, opcode,
                        std::string("no ") + kind + " has this opcode"};
    return false;
  }
  Reader reader(frame.subspan(header), opcode, detail);
  Variant decoded;
  decode(reader, &decoded);
  if (!reader.ok()) {
    *error = reader.Error(opcode, ParseErrorCode::kBadLength,
                          std::string("payload shorter than the ") + kind + " needs");
    return false;
  }
  // The length field must name exactly the padded size of what the body
  // consumed (at least `floor`).  A frame padded out further than that is a
  // length-field lie, not slack.
  if (std::max(floor, Pad4(header + reader.offset())) != frame.size()) {
    *error = ParseError{ParseErrorCode::kBadLength, 0, opcode,
                        "frame length disagrees with payload size"};
    return false;
  }
  *out = std::move(decoded);
  return true;
}

template <class Variant>
WireOpcode OpcodeOf(const Variant& message) {
  return std::visit(
      []<class T>(const T&) { return static_cast<WireOpcode>(Meta<T>::kCodes[0]); }, message);
}

template <class Variant>
std::string NameOf(const Variant& message) {
  return std::visit([]<class T>(const T&) { return std::string(Meta<T>::kName); }, message);
}

}  // namespace

// ---- Request metadata -------------------------------------------------------

WireOpcode RequestOpcode(const Request& request) { return OpcodeOf(request); }

std::string WireRequestName(const Request& request) { return NameOf(request); }

RequestCode RequestCodeOf(const Request& request) {
  return std::visit([]<class T>(const T&) { return Meta<T>::kRequestCode; }, request);
}

RequestCode RequestCodeForOpcode(uint8_t opcode) { return kRequestCodes[opcode]; }

bool RequestHasReply(RequestCode code) {
  bool answered = false;
  ForEachAlternative<Reply>([&]<class T>(std::type_identity<T>) {
    answered = answered || kRequestCodes[Meta<T>::kCodes[0]] == code;
  });
  return answered;
}

// ---- Request frames ---------------------------------------------------------

void EncodeRequest(const Request& request, WireWriter* writer) {
  std::visit(
      [writer]<class T>(const T& m) {
        Writer io(writer, Meta<T>::kCodes);
        writer->BeginRequest(Meta<T>::kCodes[0], 0);
        Body(io, m);
      },
      request);
  writer->CloseRequest();
}

std::vector<uint8_t> EncodeRequestBytes(const Request& request) {
  WireWriter writer;
  EncodeRequest(request, &writer);
  return writer.Take();
}

size_t DecodeRequest(std::span<const uint8_t> buffer, Request* out, ParseError* error) {
  if (buffer.size() < 4) {
    *error = ParseError{ParseErrorCode::kTruncated, 0, buffer.empty() ? uint8_t{0} : buffer[0],
                        "buffer shorter than request header"};
    return 0;
  }
  uint8_t opcode = buffer[0];
  size_t frame_bytes =
      (static_cast<size_t>(buffer[2]) | static_cast<size_t>(buffer[3]) << 8) * 4;
  if (frame_bytes < 4) {
    *error = ParseError{ParseErrorCode::kBadLength, 0, opcode,
                        "frame length smaller than its header"};
    return 0;
  }
  if (frame_bytes > kMaxRequestBytes) {
    *error = ParseError{ParseErrorCode::kOversized, 0, opcode,
                        "frame length exceeds kMaxRequestBytes"};
    return 0;
  }
  if (frame_bytes > buffer.size()) {
    *error = ParseError{ParseErrorCode::kTruncated, 0, opcode,
                        "frame extends past end of buffer"};
    return 0;
  }
  if (!DecodeFrame(buffer.first(frame_bytes), 4, 4, opcode, buffer[1], "request", out, error)) {
    return 0;
  }
  return frame_bytes;
}

// ---- Reply metadata ---------------------------------------------------------

WireOpcode ReplyOpcode(const Reply& reply) { return OpcodeOf(reply); }

std::string WireReplyName(const Reply& reply) { return NameOf(reply); }

// ---- Reply frames -----------------------------------------------------------

void EncodeReply(const Reply& reply, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  writer->U8(1);  // Replies are frame type 1, as in core X11.
  writer->U8(static_cast<uint8_t>(ReplyOpcode(reply)));
  writer->U16(sequence);
  writer->U32(0);  // Extra length, patched below.
  std::visit(
      [writer]<class T>(const T& m) {
        Writer io(writer, Meta<T>::kCodes, /*clamp=*/true);
        Body(io, m);
      },
      reply);
  // Pad to the 4-byte grid and to the 32-byte floor, then patch the length
  // field with the 4-byte units beyond the floor.
  while ((writer->bytes().size() - start) % 4 != 0 ||
         writer->bytes().size() - start < kMinReplyBytes) {
    writer->U8(0);
  }
  size_t frame_bytes = writer->bytes().size() - start;
  writer->PatchU32(start + 4, static_cast<uint32_t>((frame_bytes - kMinReplyBytes) / 4));
}

std::vector<uint8_t> EncodeReplyBytes(const Reply& reply, uint16_t sequence) {
  WireWriter writer;
  EncodeReply(reply, sequence, &writer);
  return writer.Take();
}

size_t DecodeReply(std::span<const uint8_t> buffer, Reply* out, ParseError* error,
                   uint16_t* sequence) {
  if (buffer.size() < 8) {
    *error = ParseError{ParseErrorCode::kTruncated, 0, buffer.empty() ? uint8_t{0} : buffer[0],
                        "buffer shorter than reply header"};
    return 0;
  }
  if (buffer[0] != 1) {
    *error = ParseError{ParseErrorCode::kBadOpcode, 0, buffer[0],
                        "reply frames start with a one byte"};
    return 0;
  }
  uint8_t opcode = buffer[1];
  uint32_t extra = WireReader(buffer.subspan(4, 4)).U32();
  if (extra > (kMaxReplyBytes - kMinReplyBytes) / 4) {
    *error = ParseError{ParseErrorCode::kOversized, 0, opcode,
                        "frame length exceeds kMaxReplyBytes"};
    return 0;
  }
  size_t frame_bytes = kMinReplyBytes + static_cast<size_t>(extra) * 4;
  if (frame_bytes > buffer.size()) {
    *error = ParseError{ParseErrorCode::kTruncated, 0, opcode,
                        "frame extends past end of buffer"};
    return 0;
  }
  if (!DecodeFrame(buffer.first(frame_bytes), 8, kMinReplyBytes, opcode, 0, "reply", out,
                   error)) {
    return 0;
  }
  if (sequence != nullptr) {
    *sequence = WireReader(buffer.subspan(2, 2)).U16();
  }
  return frame_bytes;
}

// ---- Event frames -----------------------------------------------------------

void EncodeEvent(const Event& event, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  std::visit(
      [writer, sequence, start]<class T>(const T& m) {
        Writer io(writer, Meta<T>::kCodes);
        writer->U8(Meta<T>::kCodes[0]);
        writer->U8(0);  // Detail, set by the body.
        writer->U16(sequence);
        Body(io, m);
        io.Pad(start + kEventWireBytes - writer->bytes().size());
      },
      event);
}

std::vector<uint8_t> EncodeEventBytes(const Event& event, uint16_t sequence) {
  WireWriter writer;
  EncodeEvent(event, sequence, &writer);
  return writer.Take();
}

size_t DecodeEvent(std::span<const uint8_t> buffer, Event* out, ParseError* error,
                   uint16_t* sequence) {
  if (buffer.size() < kEventWireBytes) {
    *error = ParseError{ParseErrorCode::kTruncated, 0, buffer.empty() ? uint8_t{0} : buffer[0],
                        "event frame shorter than 32 bytes"};
    return 0;
  }
  uint8_t code = buffer[0];
  if (sequence != nullptr) {
    *sequence = WireReader(buffer.subspan(2, 2)).U16();
  }
  DecodeFn<Event> decode = kDecoders<Event>[code];
  if (decode == nullptr) {
    *error = ParseError{ParseErrorCode::kBadOpcode, 0, code, "event code not implemented"};
    return 0;
  }
  Reader reader(buffer.subspan(4, kEventWireBytes - 4), code, buffer[1]);
  Event event;
  decode(reader, &event);
  // The reader is scoped to the 28-byte body, so only a codec bug could
  // overrun it.  Guard anyway: never let a short read masquerade as success.
  if (!reader.ok()) {
    *error = reader.Error(code, ParseErrorCode::kTruncated, "event body short");
    return 0;
  }
  *out = std::move(event);
  return kEventWireBytes;
}

// ---- Error frames -----------------------------------------------------------

void EncodeError(const XError& error, WireWriter* writer) {
  static constexpr uint8_t kErrorFrameType[] = {0};  // As in core X11.
  size_t start = writer->bytes().size();
  Writer io(writer, kErrorFrameType);
  writer->U8(0);
  writer->U8(0);  // Error code, set by the body.
  writer->U16(static_cast<uint16_t>(error.sequence));
  Body(io, error);
  io.Pad(start + kEventWireBytes - writer->bytes().size());
}

size_t DecodeError(std::span<const uint8_t> buffer, XError* out, ParseError* parse_error) {
  if (buffer.size() < kEventWireBytes) {
    *parse_error = ParseError{ParseErrorCode::kTruncated, 0, 0, "error frame short"};
    return 0;
  }
  if (buffer[0] != 0) {
    *parse_error = ParseError{ParseErrorCode::kBadOpcode, 0, buffer[0],
                              "error frames start with a zero byte"};
    return 0;
  }
  Reader reader(buffer.subspan(4, kEventWireBytes - 4), 0, buffer[1]);
  XError error;
  Body(reader, error);
  if (!reader.ok()) {
    *parse_error = reader.Error(0, ParseErrorCode::kTruncated, "error body short");
    return 0;
  }
  *out = error;
  return kEventWireBytes;
}

}  // namespace xproto
