// Differential tests for the hardened X wire codec (docs/PROTOCOL.md):
// encode → decode must be the identity for every request, event and error
// type the subset implements, including boundary values (±kMaxCoordinate
// coordinates, zero-length properties, cap-sized payloads); and every
// malformed frame — truncated, oversized, misaligned, length-lying — must
// come back as a typed ParseError, never a crash or an overread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/xproto/error.h"
#include "src/xproto/events.h"
#include "src/xproto/trace.h"
#include "src/xproto/types.h"
#include "src/xproto/wire.h"

namespace xproto {
namespace {

// ---- Request round-trips ----------------------------------------------------

// Encode, decode, and require the result to equal the input bit for bit.
void ExpectRequestRoundTrip(const Request& request) {
  std::vector<uint8_t> bytes = EncodeRequestBytes(request);
  SCOPED_TRACE(WireRequestName(request) + " (" + std::to_string(bytes.size()) + " bytes)");
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes.size() % 4, 0u) << "frames are 4-byte aligned";
  // The header length field counts 4-byte units including the header.
  size_t header_len = (static_cast<size_t>(bytes[2]) | static_cast<size_t>(bytes[3]) << 8) * 4;
  EXPECT_EQ(header_len, bytes.size());

  Request decoded;
  ParseError error;
  size_t consumed = DecodeRequest(bytes, &decoded, &error);
  ASSERT_EQ(consumed, bytes.size()) << ParseErrorText(error);
  EXPECT_TRUE(request == decoded);
}

// One exemplar per request type, with boundary values where the wire
// representation has edges.
std::vector<Request> AllRequestExemplars() {
  std::vector<Request> all;
  all.push_back(CreateWindowRequest{.window = 0xFFFFFFFFu,
                                    .parent = 1,
                                    .geometry = {-kMaxCoordinate, kMaxCoordinate, 65535, 1},
                                    .border_width = 65535,
                                    .window_class = WindowClass::kInputOnly,
                                    .override_redirect = true});
  all.push_back(CreateWindowRequest{});  // All defaults.
  all.push_back(DestroyWindowRequest{.window = 0xFFFFFFFFu});
  all.push_back(MapWindowRequest{.window = 7});
  all.push_back(UnmapWindowRequest{.window = 7});
  all.push_back(ReparentWindowRequest{
      .window = 3, .parent = 4, .position = {-kMaxCoordinate, kMaxCoordinate}});
  all.push_back(ConfigureWindowRequest{.window = 9, .value_mask = 0});  // Empty LISTofVALUE.
  all.push_back(ConfigureWindowRequest{
      .window = 9,
      .value_mask = kConfigX | kConfigY | kConfigWidth | kConfigHeight | kConfigBorderWidth |
                    kConfigSibling | kConfigStackMode,
      .geometry = {-kMaxCoordinate, kMaxCoordinate, 1, 2},
      .border_width = 5,
      .sibling = 11,
      .stack_mode = StackMode::kOpposite});
  all.push_back(ConfigureWindowRequest{
      .window = 2, .value_mask = kConfigStackMode, .stack_mode = StackMode::kBottomIf});
  all.push_back(SelectInputRequest{.window = 5, .event_mask = 0xFFFFFFFFu});
  all.push_back(ChangeSaveSetRequest{.window = 6, .add = false});
  all.push_back(ChangePropertyRequest{.window = 8,
                                      .property = 2,
                                      .type = 3,
                                      .format = 8,
                                      .mode = 2,
                                      .data = {}});  // Zero-length property.
  all.push_back(ChangePropertyRequest{
      .window = 8,
      .property = 2,
      .type = 3,
      .format = 32,
      .mode = 0,
      .data = std::vector<uint8_t>(4096, 0xAB)});
  all.push_back(DeletePropertyRequest{.window = 8, .property = 2});
  all.push_back(SendEventRequest{.destination = 12,
                                 .event_mask = kPropertyChangeMask,
                                 .event = PropertyNotifyEvent{.window = 12,
                                                              .atom = 44,
                                                              .state = PropertyState::kDeleted,
                                                              .time = 123456789}});
  all.push_back(SetInputFocusRequest{.window = kNone});
  all.push_back(GrabButtonRequest{
      .window = 13, .button = kMaxButton, .modifiers = 0x11, .event_mask = 0x22});
  all.push_back(GrabButtonRequest{.window = 13, .button = 0});  // AnyButton.
  all.push_back(UngrabButtonRequest{.window = 13, .button = 1, .modifiers = 0});
  all.push_back(ClearWindowRequest{.window = 14});
  all.push_back(SetWindowBackgroundRequest{.window = 15, .background = '#'});
  all.push_back(SetCursorRequest{.window = 16, .name = ""});
  all.push_back(SetCursorRequest{.window = 16, .name = "question_arrow"});
  all.push_back(DrawRequest{.window = 17,
                            .kind = 0,
                            .rect = {-kMaxCoordinate, kMaxCoordinate, 80, 24},
                            .fill = '~'});
  all.push_back(DrawRequest{.window = 17,
                            .kind = 2,
                            .rect = {1, 2, 3, 4},
                            .fill = ' ',
                            .text = std::string(100, 'x')});
  all.push_back(DrawRequest{.window = 17,
                            .kind = 4,
                            .rect = {0, 0, 8, 4},
                            .bitmap_width = 8,
                            .bitmap_height = 4,
                            .bitmap_cells = std::vector<uint8_t>(32, 1)});
  all.push_back(ShapeRegionRequest{.window = 18, .rects = {}});
  all.push_back(ShapeRegionRequest{
      .window = 18,
      .rects = {{0, 0, 10, 10}, {-kMaxCoordinate, kMaxCoordinate, 65535, 65535}}});
  all.push_back(ShapeClearRequest{.window = 19});
  all.push_back(ShapeSelectRequest{.window = 20, .enable = true});
  // Reply-bearing queries.
  all.push_back(GetWindowAttributesRequest{.window = 21});
  all.push_back(GetGeometryRequest{.window = 0xFFFFFFFFu});
  all.push_back(QueryTreeRequest{.window = 22});
  all.push_back(InternAtomRequest{.name = ""});
  all.push_back(InternAtomRequest{.name = "WM_PROTOCOLS"});
  all.push_back(InternAtomRequest{.name = std::string(kMaxWireStringBytes, 'a')});
  all.push_back(GetAtomNameRequest{.atom = 31});
  all.push_back(GetPropertyRequest{.window = 23, .property = 32});
  all.push_back(TranslateCoordinatesRequest{
      .src = 24, .dst = 25, .point = {-kMaxCoordinate, kMaxCoordinate}});
  all.push_back(QueryScreensRequest{});
  all.push_back(GetIdRangeRequest{});
  all.push_back(QueryPointerRequest{});
  all.push_back(GetInputFocusRequest{});
  all.push_back(ShapeGetRectanglesRequest{.window = 0xFFFFFFFFu});
  // The one void request among the pointer calls.
  all.push_back(
      WarpPointerRequest{.dst = 26, .position = {-kMaxCoordinate, kMaxCoordinate}});
  return all;
}

TEST(WireRequestRoundTrip, EveryRequestTypeIsIdentity) {
  for (const Request& request : AllRequestExemplars()) {
    ExpectRequestRoundTrip(request);
  }
}

// Every one of the 128 ConfigureWindow value-mask subsets.  The LISTofVALUE
// encoding is mask-driven, so each subset is its own frame layout.
std::vector<Request> ConfigureMaskExemplars() {
  std::vector<Request> all;
  for (uint16_t mask = 0; mask < 128; ++mask) {
    ConfigureWindowRequest request;
    request.window = 1;
    request.value_mask = mask;
    request.geometry = {-5, 7, 300, 200};
    request.border_width = 2;
    request.sibling = 42;
    request.stack_mode = StackMode::kBelow;
    // Fields not covered by the mask don't travel; zero them so the decoded
    // struct (which leaves them defaulted) compares equal.
    if (!(mask & kConfigX)) request.geometry.x = 0;
    if (!(mask & kConfigY)) request.geometry.y = 0;
    if (!(mask & kConfigWidth)) request.geometry.width = 0;
    if (!(mask & kConfigHeight)) request.geometry.height = 0;
    if (!(mask & kConfigBorderWidth)) request.border_width = 0;
    if (!(mask & kConfigSibling)) request.sibling = kNone;
    if (!(mask & kConfigStackMode)) request.stack_mode = StackMode::kAbove;
    all.push_back(request);
  }
  return all;
}

TEST(WireRequestRoundTrip, ConfigureWindowEveryMaskSubset) {
  for (const Request& request : ConfigureMaskExemplars()) {
    ExpectRequestRoundTrip(request);
  }
}

TEST(WireRequestRoundTrip, BackToBackFramesDecodeInSequence) {
  WireWriter w;
  std::vector<Request> sent = AllRequestExemplars();
  for (const Request& request : sent) {
    EncodeRequest(request, &w);
  }
  std::span<const uint8_t> buffer = w.span();
  size_t offset = 0;
  for (const Request& request : sent) {
    Request decoded;
    ParseError error;
    size_t consumed = DecodeRequest(buffer.subspan(offset), &decoded, &error);
    ASSERT_GT(consumed, 0u) << ParseErrorText(error);
    EXPECT_TRUE(request == decoded);
    offset += consumed;
  }
  EXPECT_EQ(offset, buffer.size());
}

// ---- Event round-trips ------------------------------------------------------

void ExpectEventRoundTrip(const Event& event) {
  SCOPED_TRACE(EventName(event));
  std::vector<uint8_t> bytes = EncodeEventBytes(event, 0xBEEF);
  ASSERT_EQ(bytes.size(), kEventWireBytes);
  Event decoded;
  ParseError error;
  uint16_t sequence = 0;
  ASSERT_EQ(DecodeEvent(bytes, &decoded, &error, &sequence), kEventWireBytes)
      << ParseErrorText(error);
  EXPECT_EQ(sequence, 0xBEEF);
  EXPECT_TRUE(event == decoded);
}

std::vector<Event> AllEventExemplars() {
  std::vector<Event> all;
  all.push_back(ButtonEvent{.press = true,
                            .window = 1,
                            .subwindow = 2,
                            .button = kMaxButton,
                            .modifiers = 0x15,
                            .root_pos = {-kMaxCoordinate, kMaxCoordinate},
                            .pos = {3, -4},
                            .time = 0xDEADBEEFCAFEull});
  all.push_back(ButtonEvent{.press = false, .window = 1, .button = 1});
  all.push_back(MotionEvent{
      .window = 1, .subwindow = 0, .modifiers = 1, .root_pos = {5, 6}, .pos = {7, 8}});
  all.push_back(KeyEvent{.press = true, .window = 2, .keysym = 0xFF0D, .modifiers = 4});
  all.push_back(KeyEvent{.press = false, .window = 2, .keysym = 'q'});
  all.push_back(CrossingEvent{.enter = true, .window = 3, .root_pos = {1, 1}, .pos = {0, 0}});
  all.push_back(CrossingEvent{.enter = false, .window = 3});
  all.push_back(ExposeEvent{.window = 4, .area = {0, 0, 65535, 65535}, .count = -1});
  all.push_back(CreateNotifyEvent{
      .parent = 5, .window = 6, .geometry = {1, 2, 3, 4}, .override_redirect = true});
  all.push_back(DestroyNotifyEvent{.event_window = 7, .window = 8});
  all.push_back(MapRequestEvent{.parent = 9, .window = 10});
  all.push_back(MapNotifyEvent{.event_window = 11, .window = 12, .override_redirect = true});
  all.push_back(UnmapNotifyEvent{.event_window = 13, .window = 14, .from_configure = true});
  all.push_back(ReparentNotifyEvent{.event_window = 15,
                                    .window = 16,
                                    .parent = 17,
                                    .pos = {-100, 100},
                                    .override_redirect = false});
  all.push_back(ConfigureRequestEvent{.parent = 18,
                                      .window = 19,
                                      .value_mask = kConfigX | kConfigStackMode,
                                      .geometry = {9, 8, 7, 6},
                                      .border_width = 1,
                                      .sibling = 20,
                                      .stack_mode = StackMode::kOpposite});
  all.push_back(ConfigureNotifyEvent{.event_window = 21,
                                     .window = 22,
                                     .geometry = {-1, -2, 30, 40},
                                     .border_width = 3,
                                     .above_sibling = 23,
                                     .override_redirect = true,
                                     .synthetic = true});
  all.push_back(CirculateRequestEvent{.parent = 24, .window = 25, .place_on_top = false});
  all.push_back(PropertyNotifyEvent{
      .window = 26, .atom = 27, .state = PropertyState::kDeleted, .time = 99});
  all.push_back(ClientMessageEvent{
      .window = 28, .message_type = 29, .format = 32, .data = {1, 2, 3, 4, 5}});
  all.push_back(ClientMessageEvent{.window = 28, .message_type = 29, .format = 8});
  all.push_back(FocusEvent{.in = true, .window = 30});
  all.push_back(FocusEvent{.in = false, .window = 31});
  all.push_back(ShapeNotifyEvent{.window = 32, .shaped = true, .extents = {0, 0, 5, 5}});
  return all;
}

TEST(WireEventRoundTrip, EveryEventTypeIsIdentity) {
  for (const Event& event : AllEventExemplars()) {
    ExpectEventRoundTrip(event);
  }
}

TEST(WireErrorRoundTrip, ErrorFrameIsIdentity) {
  XError error;
  error.code = ErrorCode::kBadLength;
  error.request = RequestCode::kDraw;
  error.resource_id = 0xABCD1234u;
  error.sequence = 1207;
  WireWriter w;
  EncodeError(error, &w);
  ASSERT_EQ(w.bytes().size(), kEventWireBytes);
  XError decoded;
  ParseError parse_error;
  ASSERT_EQ(DecodeError(w.span(), &decoded, &parse_error), kEventWireBytes);
  EXPECT_EQ(decoded.code, error.code);
  EXPECT_EQ(decoded.request, error.request);
  EXPECT_EQ(decoded.resource_id, error.resource_id);
  EXPECT_EQ(decoded.sequence, error.sequence);
}

// ---- Malformed-frame rejection ----------------------------------------------

ParseError DecodeExpectingFailure(std::span<const uint8_t> bytes) {
  Request decoded;
  ParseError error;
  EXPECT_EQ(DecodeRequest(bytes, &decoded, &error), 0u);
  return error;
}

TEST(WireRequestRejects, EmptyAndShortBuffers) {
  EXPECT_EQ(DecodeExpectingFailure({}).code, ParseErrorCode::kTruncated);
  std::vector<uint8_t> three = {8, 0, 1};
  EXPECT_EQ(DecodeExpectingFailure(three).code, ParseErrorCode::kTruncated);
}

TEST(WireRequestRejects, UnknownOpcode) {
  std::vector<uint8_t> frame = {99, 0, 2, 0, 1, 0, 0, 0};
  ParseError error = DecodeExpectingFailure(frame);
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
  EXPECT_EQ(error.opcode, 99);
}

TEST(WireRequestRejects, ZeroLengthField) {
  std::vector<uint8_t> frame = {8, 0, 0, 0, 1, 0, 0, 0};
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadLength);
}

TEST(WireRequestRejects, LengthFieldBeyondBuffer) {
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 1});
  frame[2] = 0x40;  // Claim 256 bytes; the buffer has 8.
  frame[3] = 0;
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kTruncated);
}

TEST(WireRequestRejects, OversizedLengthField) {
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 1});
  frame[2] = 0xFF;  // 0xFFFF units = 256KB > kMaxRequestBytes.
  frame[3] = 0xFF;
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kOversized);
}

TEST(WireRequestRejects, LengthLongerThanPayloadNeeds) {
  // A frame padded out beyond what its payload decodes to is a length lie.
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 1});
  frame.resize(frame.size() + 4, 0);
  frame[2] = static_cast<uint8_t>(frame.size() / 4);
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadLength);
}

TEST(WireRequestRejects, EmbeddedPropertyLengthLie) {
  // The ChangeProperty data_len claims more bytes than the frame carries.
  std::vector<uint8_t> frame = EncodeRequestBytes(ChangePropertyRequest{
      .window = 1, .property = 2, .type = 3, .format = 8, .mode = 0,
      .data = {1, 2, 3, 4}});
  // data_len lives 16 bytes into the payload (after window/property/type,
  // format + 3 pad): header(4) + 12 + 4 = offset 20.
  frame[20] = 0xFF;
  frame[21] = 0xFF;
  ParseError error = DecodeExpectingFailure(frame);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);
}

TEST(WireRequestRejects, BadEnumValues) {
  {
    std::vector<uint8_t> frame = EncodeRequestBytes(CreateWindowRequest{.parent = 1});
    frame[1] = 7;  // Window class must be 0/1.
    EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadValue);
  }
  {
    std::vector<uint8_t> frame = EncodeRequestBytes(GrabButtonRequest{.window = 1, .button = 1});
    frame[1] = kMaxButton + 1;
    EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadValue);
  }
  {
    std::vector<uint8_t> frame = EncodeRequestBytes(ConfigureWindowRequest{
        .window = 1, .value_mask = kConfigStackMode, .stack_mode = StackMode::kAbove});
    // StackMode value slot: header(4) + window(4) + mask(2) + pad(2) = 12.
    frame[12] = 200;
    EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadValue);
  }
}

TEST(WireRequestRejects, OversizedDrawBitmap) {
  WireWriter w;
  w.BeginRequest(static_cast<uint8_t>(WireOpcode::kDraw), 4);
  w.U32(1);             // window
  w.I16(0); w.I16(0); w.U16(8); w.U16(8);  // rect
  w.U8(' '); w.U8(0);
  w.U16(0);             // text_len
  w.U16(300); w.U16(300);  // 90000 cells > kMaxWireBitmapCells
  w.CloseRequest();
  EXPECT_EQ(DecodeExpectingFailure(w.span()).code, ParseErrorCode::kOversized);
}

TEST(WireRequestRejects, TruncationSweepNeverCrashes) {
  // Every proper prefix of every exemplar frame must fail cleanly.  Under
  // ASan/UBSan this is the no-overread guarantee.
  for (const Request& request : AllRequestExemplars()) {
    std::vector<uint8_t> frame = EncodeRequestBytes(request);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      Request decoded;
      ParseError error;
      EXPECT_EQ(DecodeRequest(std::span<const uint8_t>(frame.data(), cut), &decoded, &error),
                0u)
          << WireRequestName(request) << " prefix " << cut;
    }
  }
}

TEST(WireEventRejects, ShortUnknownAndBadDetail) {
  Event decoded;
  ParseError error;
  std::vector<uint8_t> short_frame(16, 0);
  EXPECT_EQ(DecodeEvent(short_frame, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kTruncated);

  std::vector<uint8_t> unknown(kEventWireBytes, 0);
  unknown[0] = 200;
  EXPECT_EQ(DecodeEvent(unknown, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);

  std::vector<uint8_t> bad_button = EncodeEventBytes(ButtonEvent{.window = 1, .button = 1}, 0);
  bad_button[1] = kMaxButton + 1;
  EXPECT_EQ(DecodeEvent(bad_button, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);
}

// ---- Trace container round-trip ---------------------------------------------

TEST(TraceRoundTrip, SerializeParseIsIdentity) {
  TraceRecorder recorder;
  recorder.RecordConnect(3, "wm-host");
  recorder.RecordConnect(4, "");
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 9});
  recorder.RecordRequestBytes(3, frame);
  recorder.RecordMotion(-50, 50);
  recorder.RecordButton(1, true, 0x8);
  recorder.RecordButton(1, false, 0);
  recorder.RecordKey(0xFF0D, true, 1);
  recorder.RecordWarp(0, 10, 20);
  recorder.RecordPump();
  recorder.RecordDisconnect(4);
  recorder.RecordExpect(17, 5, 1234);

  std::vector<uint8_t> bytes = SerializeTrace(recorder.trace());
  ParseError error;
  std::optional<Trace> parsed = ParseTrace(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << ParseErrorText(error);
  ASSERT_EQ(parsed->records.size(), recorder.trace().records.size());
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    EXPECT_TRUE(parsed->records[i] == recorder.trace().records[i]) << "record " << i;
  }
}

TEST(TraceRoundTrip, RejectsCorruptContainers) {
  TraceRecorder recorder;
  recorder.RecordConnect(1, "host");
  std::vector<uint8_t> bytes = SerializeTrace(recorder.trace());
  ParseError error;

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseTrace(bad_magic, &error).has_value());
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);

  std::vector<uint8_t> bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_FALSE(ParseTrace(bad_version, &error).has_value());
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);

  // Every truncation of the container fails cleanly (or parses a shorter
  // record list; never reads past the end).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ParseTrace(std::span<const uint8_t>(bytes.data(), cut), &error);
  }

  std::vector<uint8_t> bad_type = bytes;
  bad_type[8] = 0x7F;  // Record type header byte.
  EXPECT_FALSE(ParseTrace(bad_type, &error).has_value());
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
}

// Only the current version is read.  A v2 trace names server-minted window
// ids and has no id field in its CreateWindow frames, so it cannot replay.
TEST(TraceRoundTrip, RejectsOlderVersions) {
  TraceRecorder recorder;
  recorder.RecordConnect(1, "host");
  std::vector<uint8_t> bytes = SerializeTrace(recorder.trace());
  ASSERT_EQ(kTraceVersion, 3u);
  ParseError error;
  for (uint32_t version : {1u, 2u}) {
    std::vector<uint8_t> old = bytes;
    old[4] = static_cast<uint8_t>(version);  // Little-endian u32 after the magic.
    EXPECT_FALSE(ParseTrace(old, &error).has_value()) << "v" << version;
    EXPECT_EQ(error.code, ParseErrorCode::kBadValue);
    EXPECT_EQ(error.offset, 4u);
    EXPECT_EQ(error.detail, "unsupported trace version");
  }
}

// ---- Reply round-trips ------------------------------------------------------

void ExpectReplyRoundTrip(const Reply& reply) {
  SCOPED_TRACE(WireReplyName(reply));
  std::vector<uint8_t> bytes = EncodeReplyBytes(reply, 0xCAFE);
  ASSERT_GE(bytes.size(), kMinReplyBytes) << "replies are at least 32 bytes";
  EXPECT_EQ(bytes.size() % 4, 0u) << "reply frames are 4-byte aligned";
  EXPECT_EQ(bytes[0], 1) << "reply frames start with a one byte";
  // The extra-length field counts 4-byte units beyond the 32-byte minimum.
  uint32_t extra = static_cast<uint32_t>(bytes[4]) | (static_cast<uint32_t>(bytes[5]) << 8) |
                   (static_cast<uint32_t>(bytes[6]) << 16) |
                   (static_cast<uint32_t>(bytes[7]) << 24);
  EXPECT_EQ(kMinReplyBytes + static_cast<size_t>(extra) * 4, bytes.size());

  Reply decoded;
  ParseError error;
  uint16_t sequence = 0;
  ASSERT_EQ(DecodeReply(bytes, &decoded, &error, &sequence), bytes.size())
      << ParseErrorText(error);
  EXPECT_EQ(sequence, 0xCAFE);
  EXPECT_TRUE(reply == decoded);
}

std::vector<Reply> AllReplyExemplars() {
  std::vector<Reply> all;
  all.push_back(AttributesReply{.window = 1,
                                .window_class = WindowClass::kInputOnly,
                                .map_state = MapState::kViewable,
                                .override_redirect = true,
                                .all_event_masks = 0xFFFFFFFFu,
                                .border_width = 65535,
                                .your_event_mask = 0xFFFFFFFFu});
  all.push_back(AttributesReply{});  // All defaults.
  all.push_back(GeometryReply{
      .window = 2, .geometry = {-kMaxCoordinate, kMaxCoordinate, 65535, 1}, .border_width = 7});
  all.push_back(TreeReply{.window = 3, .root = 1, .parent = 2, .children = {}});
  std::vector<WindowId> children(500);
  for (size_t i = 0; i < children.size(); ++i) {
    children[i] = static_cast<WindowId>(i + 100);
  }
  all.push_back(TreeReply{.window = 3, .root = 1, .parent = 2, .children = children});
  all.push_back(AtomReply{.atom = 0xFFFFFFFFu});
  all.push_back(AtomNameReply{.atom = 5, .name = ""});
  all.push_back(AtomNameReply{.atom = 5, .name = "WM_DELETE_WINDOW"});
  all.push_back(AtomNameReply{.atom = 6, .name = std::string(kMaxWireStringBytes, 'n')});
  all.push_back(PropertyReply{.window = 7, .property = 8, .found = false});
  all.push_back(PropertyReply{.window = 7,
                              .property = 8,
                              .found = true,
                              .type = 9,
                              .format = 32,
                              .data = std::vector<uint8_t>(4096, 0xCD)});
  all.push_back(PropertyReply{
      .window = 7, .property = 8, .found = true, .type = 9, .format = 16, .data = {}});
  all.push_back(CoordinatesReply{.position = {-kMaxCoordinate, kMaxCoordinate}});
  all.push_back(ScreensReply{});
  all.push_back(ScreensReply{.id_base = 0xFFE00000u,
                             .id_mask = kIdMask,
                             .screens = {{.root = 1, .width = 80, .height = 24, .monochrome = true},
                                         {.root = 2, .width = 65535, .height = 1}}});
  all.push_back(IdRangeReply{});
  all.push_back(IdRangeReply{.start_id = 0x00200005u, .count = kIdMask - 4});
  all.push_back(PointerReply{.screen = 255,
                             .root_pos = {-kMaxCoordinate, kMaxCoordinate},
                             .window = 0xFFFFFFFFu,
                             .buttons_down = 0x1F});
  all.push_back(FocusReply{});  // Pointer-root focus.
  all.push_back(FocusReply{.window = 0xFFFFFFFFu});
  all.push_back(ShapeRectanglesReply{.window = 4});  // Unshaped.
  all.push_back(ShapeRectanglesReply{
      .window = 4,
      .shaped = true,
      .rects = {{0, 0, 10, 10}, {-kMaxCoordinate, kMaxCoordinate, 65535, 65535}}});
  return all;
}

TEST(WireReplyRoundTrip, EveryReplyTypeIsIdentity) {
  for (const Reply& reply : AllReplyExemplars()) {
    ExpectReplyRoundTrip(reply);
  }
}

TEST(WireReplyRoundTrip, BackToBackReplyFramesDecodeInSequence) {
  WireWriter w;
  std::vector<Reply> sent = AllReplyExemplars();
  uint16_t seq = 1;
  for (const Reply& reply : sent) {
    EncodeReply(reply, seq++, &w);
  }
  std::span<const uint8_t> buffer = w.span();
  size_t offset = 0;
  seq = 1;
  for (const Reply& reply : sent) {
    Reply decoded;
    ParseError error;
    uint16_t decoded_seq = 0;
    size_t consumed = DecodeReply(buffer.subspan(offset), &decoded, &error, &decoded_seq);
    ASSERT_GT(consumed, 0u) << ParseErrorText(error);
    EXPECT_EQ(decoded_seq, seq++);
    EXPECT_TRUE(reply == decoded);
    offset += consumed;
  }
  EXPECT_EQ(offset, buffer.size());
}

// Every reply type, every truncation point: a frame cut anywhere must come
// back as a typed ParseError, never a crash, overread, or bogus success.
TEST(WireReplyRejects, TruncationSweepOverEveryReplyType) {
  for (const Reply& reply : AllReplyExemplars()) {
    SCOPED_TRACE(WireReplyName(reply));
    std::vector<uint8_t> bytes = EncodeReplyBytes(reply, 7);
    // Sweep every prefix of small frames; sample larger ones (every cut
    // within the first/last 64 bytes plus every 7th in between).
    for (size_t len = 0; len < bytes.size(); ++len) {
      if (bytes.size() > 160 && len > 64 && len + 64 < bytes.size() && len % 7 != 0) {
        continue;
      }
      Reply decoded;
      ParseError error;
      EXPECT_EQ(DecodeReply(std::span(bytes.data(), len), &decoded, &error), 0u)
          << "prefix of " << len << " bytes decoded";
      EXPECT_EQ(error.code, ParseErrorCode::kTruncated);
    }
  }
}

TEST(WireReplyRejects, FirstByteMustBeOne) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AtomReply{.atom = 3}, 0);
  for (uint8_t first : {0, 2, 255}) {
    bytes[0] = first;
    Reply decoded;
    ParseError error;
    EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
    EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
  }
}

TEST(WireReplyRejects, UnknownReplyOpcode) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AtomReply{.atom = 3}, 0);
  bytes[1] = 99;  // No query has opcode 99.
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
}

TEST(WireReplyRejects, OversizedExtraLength) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AtomReply{.atom = 3}, 0);
  bytes[4] = 0xFF;
  bytes[5] = 0xFF;
  bytes[6] = 0xFF;
  bytes[7] = 0xFF;
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kOversized);
}

TEST(WireReplyRejects, ExtraLengthDisagreesWithPayload) {
  // Pad a valid frame by one 4-byte unit and fix up the extra-length field:
  // the strict framing check must reject the lie.
  std::vector<uint8_t> bytes = EncodeReplyBytes(CoordinatesReply{.position = {1, 2}}, 0);
  bytes.resize(bytes.size() + 4, 0);
  uint32_t extra = static_cast<uint32_t>((bytes.size() - kMinReplyBytes) / 4);
  bytes[4] = static_cast<uint8_t>(extra);
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);
}

TEST(WireReplyRejects, BadEnumValuesRejected) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AttributesReply{.window = 1}, 0);
  bytes[8 + 4] = 9;  // window_class: only 0/1 are valid.
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);
}

TEST(WireReplyRejects, ChildCountLie) {
  std::vector<uint8_t> bytes =
      EncodeReplyBytes(TreeReply{.window = 1, .root = 1, .parent = 1, .children = {2, 3}}, 0);
  // Child count lives after window/root/parent: payload offset 12, frame
  // offset 8 + 12 = 20.  Claim more children than the frame carries.
  bytes[20] = 0xF0;
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);
}

// ---- Codec behaviour pins ---------------------------------------------------
//
// Two golden hashes hold the codec to its exact bytes and verdicts: any change
// to a field's width, order, padding, cap, bounds check or error code moves
// one of them.  A refactor of the codec must leave both unchanged.  (Both
// were re-recorded when clients began choosing window ids: CreateWindow
// gained its window field, ScreensReply the id base and mask, opcode 136
// became GetIdRange with its IdRangeReply, and BadIDChoice joined the error
// codes.  They were re-recorded again when QueryPointer, GetInputFocus,
// WarpPointer and ShapeGetRectangles got encodings: new exemplars, the
// AttributesReply's your_event_mask, and error exemplars whose request
// codes follow kMaxRequestCode; every other frame encodes as before.)

std::vector<XError> AllErrorExemplars() {
  std::vector<XError> all;
  for (uint8_t code = 0; code <= kMaxErrorCode; ++code) {
    all.push_back(XError{.code = static_cast<ErrorCode>(code),
                         .request = static_cast<RequestCode>((code * 5) % (kMaxRequestCode + 1)),
                         .resource_id = 0x01020304u * code,
                         .sequence = 0x1122334455667788ull >> code});
  }
  all.push_back(XError{.code = ErrorCode::kBadWindow,
                       .request = static_cast<RequestCode>(kMaxRequestCode),
                       .resource_id = 0xFFFFFFFFu,
                       .sequence = 0xFFFFFFFFFFFFFFFFull});
  return all;
}

size_t Pad4Bytes(size_t n) { return (n + 3) & ~size_t{3}; }

// FNV-1a, 64-bit.
struct Fnv {
  uint64_t h = 14695981039346656037ull;
  void Byte(uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void Bytes(std::span<const uint8_t> bytes) {
    for (uint8_t b : bytes) Byte(b);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
};

enum class FrameKind { kRequest, kReply, kEvent, kError };

// Every exemplar frame, encoded, grouped by kind.
std::vector<std::vector<uint8_t>> ExemplarFrames(FrameKind kind) {
  std::vector<std::vector<uint8_t>> frames;
  switch (kind) {
    case FrameKind::kRequest:
      for (const Request& r : AllRequestExemplars()) frames.push_back(EncodeRequestBytes(r));
      for (const Request& r : ConfigureMaskExemplars()) frames.push_back(EncodeRequestBytes(r));
      break;
    case FrameKind::kReply:
      for (const Reply& r : AllReplyExemplars()) frames.push_back(EncodeReplyBytes(r, 0xCAFE));
      break;
    case FrameKind::kEvent:
      for (const Event& e : AllEventExemplars()) frames.push_back(EncodeEventBytes(e, 0xBEEF));
      break;
    case FrameKind::kError:
      for (const XError& e : AllErrorExemplars()) {
        WireWriter w;
        EncodeError(e, &w);
        frames.push_back(w.Take());
      }
      break;
  }
  return frames;
}

constexpr FrameKind kFrameKinds[] = {FrameKind::kRequest, FrameKind::kReply, FrameKind::kEvent,
                                     FrameKind::kError};

TEST(WireCodecPin, EncodeGolden) {
  Fnv fnv;
  size_t frames = 0;
  for (FrameKind kind : kFrameKinds) {
    for (const std::vector<uint8_t>& frame : ExemplarFrames(kind)) {
      fnv.U64(frame.size());
      fnv.Bytes(frame);
      ++frames;
    }
  }
  EXPECT_EQ(frames, 45u + 128u + 22u + 23u + 10u);
  EXPECT_EQ(fnv.h, 0x48804c78fc304a1eull) << std::hex << "0x" << fnv.h;
}

// Decodes `input` as `kind`, folding the verdict into `fnv`: the return value,
// the ParseError's code/offset/opcode on failure, and on success the bytes the
// decoded value re-encodes to (with the decoded sequence).  True on success.
bool FoldDecode(FrameKind kind, std::span<const uint8_t> input, Fnv* fnv) {
  ParseError error;
  WireWriter w;
  size_t n = 0;
  switch (kind) {
    case FrameKind::kRequest: {
      Request request;
      n = DecodeRequest(input, &request, &error);
      if (n != 0) EncodeRequest(request, &w);
      break;
    }
    case FrameKind::kReply: {
      Reply reply;
      uint16_t sequence = 0;
      n = DecodeReply(input, &reply, &error, &sequence);
      if (n != 0) EncodeReply(reply, sequence, &w);
      break;
    }
    case FrameKind::kEvent: {
      Event event;
      uint16_t sequence = 0;
      n = DecodeEvent(input, &event, &error, &sequence);
      if (n != 0) EncodeEvent(event, sequence, &w);
      break;
    }
    case FrameKind::kError: {
      XError x;
      n = DecodeError(input, &x, &error);
      if (n != 0) EncodeError(x, &w);
      break;
    }
  }
  fnv->U64(n);
  if (n == 0) {
    fnv->U64(static_cast<uint64_t>(error.code));
    fnv->U64(error.offset);
    fnv->U64(error.opcode);
  } else {
    fnv->U64(w.bytes().size());
    fnv->Bytes(w.span());
  }
  return n != 0;
}

// Seeded mutations of every exemplar frame — bit flips, truncation, length
// lies, opcode/code scrambles, random bytes — through the four decoders.
TEST(WireCodecPin, DecodeGolden) {
  std::vector<std::vector<uint8_t>> frames[4];
  std::vector<uint8_t> codes[4];  // Byte values each kind's frames lead with.
  for (int k = 0; k < 4; ++k) {
    frames[k] = ExemplarFrames(kFrameKinds[k]);
    for (const std::vector<uint8_t>& f : frames[k]) {
      codes[k].push_back(kFrameKinds[k] == FrameKind::kReply ? f[1] : f[0]);
    }
  }
  uint64_t state = 0x5EED5EED5EED5EEDull;
  auto next = [&state] {  // splitmix64
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };

  Fnv fnv;
  size_t accepted[4] = {};
  size_t rejected[4] = {};
  for (int i = 0; i < 20000; ++i) {
    int k = static_cast<int>(next() % 4);
    FrameKind kind = kFrameKinds[k];
    std::vector<uint8_t> input = frames[k][next() % frames[k].size()];
    // Where the frame names its type: byte 1 for replies and errors (byte 0
    // is the frame type), byte 0 otherwise.
    size_t code_at = kind == FrameKind::kReply || kind == FrameKind::kError ? 1 : 0;
    switch (next() % 5) {
      case 0: {  // Bit flips.
        int flips = 1 + static_cast<int>(next() % 3);
        for (int f = 0; f < flips; ++f) {
          size_t bit = next() % (input.size() * 8);
          input[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 1:  // Truncation.
        input.resize(next() % input.size());
        break;
      case 2: {  // Length lie.
        uint32_t lie = 0;
        switch (next() % 3) {
          case 0:
            lie = 0;
            break;
          case 1:
            lie = 0xFFFFFFFFu;
            break;
          default:
            lie = static_cast<uint32_t>(input.size() / 4 + 1 + next() % 8);
            break;
        }
        if (kind == FrameKind::kRequest) {
          input[2] = static_cast<uint8_t>(lie);
          input[3] = static_cast<uint8_t>(lie >> 8);
        } else if (kind == FrameKind::kReply) {
          for (int b = 0; b < 4; ++b) input[4 + b] = static_cast<uint8_t>(lie >> (8 * b));
        } else {
          // Fixed-size frames carry no length: pad them past 32 bytes.
          input.resize(input.size() + 1 + next() % 8, static_cast<uint8_t>(lie));
        }
        break;
      }
      case 3:  // Opcode / code scramble: a random byte or another valid code.
        input[code_at] = next() % 2 != 0 ? static_cast<uint8_t>(next())
                                         : codes[k][next() % codes[k].size()];
        break;
      default: {  // Random bytes behind a valid header prefix.
        size_t keep = next() % 9;
        input.resize(std::min(input.size(), keep));
        size_t extra = next() % 48;
        for (size_t b = 0; b < extra; ++b) input.push_back(static_cast<uint8_t>(next()));
        break;
      }
    }
    ++(FoldDecode(kind, input, &fnv) ? accepted : rejected)[k];
  }
  // Each decoder sees both verdicts, so the hash pins both paths.
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(accepted[k], 100u) << "kind " << k;
    EXPECT_GT(rejected[k], 100u) << "kind " << k;
  }
  EXPECT_EQ(fnv.h, 0xad88c4312a242c00ull) << std::hex << "0x" << fnv.h;
}

// Reply encoders clamp every list to its decode cap, so any reply the server
// builds decodes; request encoders send what they are given and leave the
// cap to the decoder.
TEST(WireCodecPin, ReplyListsClampToCapsRequestListsDoNot) {
  Reply decoded;
  ParseError error;
  std::vector<WindowId> many(kMaxReplyChildren + 3, 9);
  ASSERT_GT(DecodeReply(EncodeReplyBytes(TreeReply{.window = 1, .children = many}), &decoded,
                        &error),
            0u)
      << ParseErrorText(error);
  EXPECT_EQ(std::get<TreeReply>(decoded).children.size(), kMaxReplyChildren);
  std::vector<ScreensReply::Screen> screens(kMaxReplyChildren + 3);
  ASSERT_GT(DecodeReply(EncodeReplyBytes(ScreensReply{.screens = screens}), &decoded, &error),
            0u);
  EXPECT_EQ(std::get<ScreensReply>(decoded).screens.size(), kMaxReplyChildren);
  std::string long_name(kMaxWireStringBytes + 7, 'n');
  ASSERT_GT(DecodeReply(EncodeReplyBytes(AtomNameReply{.atom = 2, .name = long_name}), &decoded,
                        &error),
            0u);
  EXPECT_EQ(std::get<AtomNameReply>(decoded).name, long_name.substr(0, kMaxWireStringBytes));
  std::vector<uint8_t> data(kMaxReplyPropertyBytes + 5, 0x5A);
  ASSERT_GT(DecodeReply(EncodeReplyBytes(PropertyReply{.found = true, .data = data}), &decoded,
                        &error),
            0u);
  EXPECT_EQ(std::get<PropertyReply>(decoded).data.size(), kMaxReplyPropertyBytes);

  Request request;
  std::vector<uint8_t> frame =
      EncodeRequestBytes(SetCursorRequest{.window = 1, .name = long_name});
  EXPECT_EQ(frame.size(), Pad4Bytes(4 + 4 + 2 + long_name.size()));
  EXPECT_EQ(DecodeRequest(frame, &request, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kOversized);
}

// DrawRequest checks the text cap and the cell cap first, then text and
// cells together against the bytes left: a text that overruns the frame
// behind an over-cap bitmap is kOversized, not kBadLength.
TEST(WireCodecPin, DrawChecksBothCapsBeforeTheCombinedOverrun) {
  WireWriter w;
  w.BeginRequest(static_cast<uint8_t>(WireOpcode::kDraw), 4);
  w.U32(1);  // window
  w.I16(0);
  w.I16(0);
  w.U16(8);
  w.U16(8);  // rect
  w.U8(' ');
  w.U8(0);
  w.U16(100);  // text_len: more than the frame carries
  w.U16(300);
  w.U16(300);  // 90000 cells > kMaxWireBitmapCells
  w.CloseRequest();
  Request request;
  ParseError error;
  EXPECT_EQ(DecodeRequest(w.span(), &request, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kOversized);
}

// CreateWindow names its window, as X's wid, right after the header; the
// ScreensReply carries the id base and mask ahead of the screen list.
TEST(WireCodecPin, WindowIdFieldsSitWhereXPutsThem) {
  std::vector<uint8_t> create = EncodeRequestBytes(
      CreateWindowRequest{.window = 0x00A00007u, .parent = 1, .geometry = {0, 0, 4, 4}});
  ASSERT_EQ(create.size(), 24u);
  EXPECT_EQ(std::vector<uint8_t>(create.begin() + 4, create.begin() + 8),
            (std::vector<uint8_t>{0x07, 0x00, 0xA0, 0x00}));
  std::vector<uint8_t> screens = EncodeReplyBytes(
      ScreensReply{.id_base = 0x00A00000u, .id_mask = kIdMask, .screens = {{.root = 1}}});
  EXPECT_EQ(std::vector<uint8_t>(screens.begin() + 8, screens.begin() + 16),
            (std::vector<uint8_t>{0x00, 0x00, 0xA0, 0x00, 0xFF, 0xFF, 0x1F, 0x00}));
  EXPECT_EQ(RequestOpcode(GetIdRangeRequest{}), WireOpcode::kGetIdRange);
  EXPECT_EQ(static_cast<int>(WireOpcode::kGetIdRange), 136);
  // Core X11's numbers for the pointer and focus calls; the shape query
  // takes the next simulator opcode.
  EXPECT_EQ(RequestOpcode(QueryPointerRequest{}), static_cast<WireOpcode>(38));
  EXPECT_EQ(RequestOpcode(WarpPointerRequest{}), static_cast<WireOpcode>(41));
  EXPECT_EQ(RequestOpcode(GetInputFocusRequest{}), static_cast<WireOpcode>(43));
  EXPECT_EQ(RequestOpcode(ShapeGetRectanglesRequest{}), static_cast<WireOpcode>(137));
  EXPECT_EQ(ReplyOpcode(IdRangeReply{}), WireOpcode::kGetIdRange);
}

// Flags are strict in replies and events (a byte above 1 is kBadValue) but
// CreateWindow's override_redirect byte decodes as set when nonzero.
TEST(WireCodecPin, CreateWindowOverrideIsLenientEventFlagsAreStrict) {
  std::vector<uint8_t> create =
      EncodeRequestBytes(CreateWindowRequest{.parent = 1, .geometry = {0, 0, 4, 4}});
  create[4 + 4 + 4 + 8 + 2] = 0x80;  // After window, parent, geometry and border width.
  Request request;
  ParseError error;
  ASSERT_EQ(DecodeRequest(create, &request, &error), create.size()) << ParseErrorText(error);
  EXPECT_TRUE(std::get<CreateWindowRequest>(request).override_redirect);

  std::vector<uint8_t> map = EncodeEventBytes(MapNotifyEvent{.event_window = 1, .window = 2});
  map[1] = 2;
  Event event;
  EXPECT_EQ(DecodeEvent(map, &event, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);

  std::vector<uint8_t> attributes = EncodeReplyBytes(AttributesReply{.window = 1});
  attributes[8 + 6] = 2;  // override_redirect, after window, class and map state.
  Reply reply;
  EXPECT_EQ(DecodeReply(attributes, &reply, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);
}

// Every opcode a request declares maps to a RequestCode and no other does:
// the set the dispatcher's opcode scramble draws from.
TEST(WireCodecPin, RequestCodeForOpcodeCoversExactlyTheDeclaredOpcodes) {
  std::vector<bool> declared(256, false);
  for (const Request& request : AllRequestExemplars()) {
    declared[static_cast<uint8_t>(RequestOpcode(request))] = true;
    EXPECT_EQ(RequestCodeForOpcode(static_cast<uint8_t>(RequestOpcode(request))),
              RequestCodeOf(request))
        << WireRequestName(request);
  }
  size_t count = 0;
  for (int opcode = 0; opcode < 256; ++opcode) {
    bool mapped = RequestCodeForOpcode(static_cast<uint8_t>(opcode)) != RequestCode::kNone;
    EXPECT_EQ(mapped, declared[opcode]) << "opcode " << opcode;
    count += mapped ? 1 : 0;
  }
  EXPECT_EQ(count, std::variant_size_v<Request>);
}

// The pins only cover what the exemplars reach: every alternative of every
// message variant needs at least one exemplar.
template <class Variant, class T>
void ExpectEveryAlternative(const std::vector<T>& exemplars, const char* what) {
  std::vector<bool> seen(std::variant_size_v<Variant>, false);
  for (const T& exemplar : exemplars) seen[exemplar.index()] = true;
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << what << " alternative " << i << " has no exemplar";
  }
}

TEST(WireCodecPin, EveryVariantAlternativeHasAnExemplar) {
  ExpectEveryAlternative<Request>(AllRequestExemplars(), "Request");
  ExpectEveryAlternative<Reply>(AllReplyExemplars(), "Reply");
  ExpectEveryAlternative<Event>(AllEventExemplars(), "Event");
}

}  // namespace
}  // namespace xproto
