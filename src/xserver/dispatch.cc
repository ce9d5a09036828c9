// Byte-level request dispatch (docs/PROTOCOL.md).
//
// DispatchBytes is where a hostile or corrupted client stream first touches
// the server: frames are parsed by the hardened wire codec and applied by
// ApplyRequest, the same typed dispatch an in-process xlib::Display uses, so
// sequence numbers, the error channel and the fault hooks behave identically
// no matter how a request arrived.  A frame the codec rejects raises a typed
// X error on the connection and aborts the rest of the buffer — after a
// framing error the stream cannot be resynchronized.
//
// This file also implements the byte-level fault mutations (bit flips,
// length-field lies, mid-message truncation, opcode scrambling): they run
// here, between the honest frames a client produced and the parser, which is
// precisely where real-world corruption happens.
#include <algorithm>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/region.h"
#include "src/xproto/wire.h"
#include "src/xserver/server.h"

namespace xserver {

using xproto::ClientId;
using xproto::ParseError;
using xproto::ParseErrorCode;
using xproto::Request;
using xproto::WindowId;

namespace {

// X error a rejected frame maps to.
xproto::ErrorCode ErrorForParse(ParseErrorCode code) {
  switch (code) {
    case ParseErrorCode::kBadOpcode:
      return xproto::ErrorCode::kBadRequest;
    case ParseErrorCode::kBadValue:
      return xproto::ErrorCode::kBadValue;
    case ParseErrorCode::kTruncated:
    case ParseErrorCode::kBadLength:
    case ParseErrorCode::kOversized:
      return xproto::ErrorCode::kBadLength;
  }
  return xproto::ErrorCode::kBadLength;
}

// Opcodes a scramble may rewrite to: parsing an old payload under a
// different valid opcode's rules probes far more decoder paths than pure
// garbage does.  Every opcode the codec declares, ascending (the seeded
// scramble indexes into this order).
const std::vector<uint8_t>& ValidOpcodes() {
  static const std::vector<uint8_t> opcodes = [] {
    std::vector<uint8_t> all;
    for (int opcode = 0; opcode < 256; ++opcode) {
      if (xproto::RequestCodeForOpcode(static_cast<uint8_t>(opcode)) !=
          xproto::RequestCode::kNone) {
        all.push_back(static_cast<uint8_t>(opcode));
      }
    }
    return all;
  }();
  return opcodes;
}

}  // namespace

void Server::MutateFrame(std::vector<uint8_t>* frame, size_t frame_start) {
  const FaultPlan& plan = fault_plan_;
  size_t frame_len = frame->size() - frame_start;
  if (frame_len == 0) {
    return;
  }
  if (fault_rng_.Roll(plan.bitflip_request_permille)) {
    int flips = fault_rng_.Range(1, 3);
    for (int i = 0; i < flips; ++i) {
      size_t bit = fault_rng_.Next() % (frame_len * 8);
      (*frame)[frame_start + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    ++fault_counters_.bitflipped_requests;
  }
  if (frame_len >= 1 && fault_rng_.Roll(plan.scramble_opcode_permille)) {
    uint8_t replacement =
        fault_rng_.Roll(500)
            ? static_cast<uint8_t>(fault_rng_.Next() % 256)
            : ValidOpcodes()[fault_rng_.Next() % ValidOpcodes().size()];
    (*frame)[frame_start] = replacement;
    ++fault_counters_.scrambled_opcodes;
  }
  if (frame_len >= 4 && fault_rng_.Roll(plan.lie_length_permille)) {
    uint16_t honest = static_cast<uint16_t>((*frame)[frame_start + 2] |
                                            (*frame)[frame_start + 3] << 8);
    uint16_t lie = 0;
    switch (fault_rng_.Range(0, 2)) {
      case 0:
        lie = 0;
        break;
      case 1:
        lie = 0xFFFF;
        break;
      default:
        lie = static_cast<uint16_t>(honest + fault_rng_.Range(1, 8));
        break;
    }
    (*frame)[frame_start + 2] = static_cast<uint8_t>(lie);
    (*frame)[frame_start + 3] = static_cast<uint8_t>(lie >> 8);
    ++fault_counters_.length_lies;
  }
  if (frame_len > 1 && fault_rng_.Roll(plan.truncate_request_permille)) {
    size_t drop = static_cast<size_t>(
        fault_rng_.Range(1, static_cast<int>(frame_len) - 1));
    frame->resize(frame->size() - drop);
    ++fault_counters_.truncated_requests;
  }
}

Server::DispatchResult Server::DispatchBytes(ClientId client,
                                             std::span<const uint8_t> bytes) {
  DispatchResult result;

  // Byte-level faults: rewrite the buffer frame-by-frame before the parser
  // (and the trace recorder) see it.  Frame boundaries for mutation targeting
  // come from the honest lengths; after mutation the parser is on its own.
  std::vector<uint8_t> mutated;
  std::span<const uint8_t> view = bytes;
  bool wire_faults =
      fault_plan_active_ && !in_fault_ &&
      (fault_plan_.bitflip_request_permille > 0 || fault_plan_.lie_length_permille > 0 ||
       fault_plan_.truncate_request_permille > 0 ||
       fault_plan_.scramble_opcode_permille > 0);
  if (wire_faults) {
    mutated.reserve(bytes.size());
    size_t cursor = 0;
    while (bytes.size() - cursor >= 4) {
      size_t frame_len = (static_cast<size_t>(bytes[cursor + 2]) |
                          static_cast<size_t>(bytes[cursor + 3]) << 8) *
                         4;
      frame_len = std::clamp(frame_len, size_t{4}, bytes.size() - cursor);
      size_t start = mutated.size();
      mutated.insert(mutated.end(), bytes.begin() + cursor, bytes.begin() + cursor + frame_len);
      MutateFrame(&mutated, start);
      cursor += frame_len;
    }
    mutated.insert(mutated.end(), bytes.begin() + cursor, bytes.end());
    view = mutated;
  }

  // The recorder captures exactly the bytes the parser is about to see —
  // mutations included — so replaying the trace reproduces this dispatch
  // byte for byte without needing the fault plan.
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordRequestBytes(client, view);
  }

  uint64_t replies_before = 0;
  if (ClientRec* rec = FindClient(client)) {
    replies_before = rec->replies_sent;
  }

  size_t offset = 0;
  while (offset < view.size()) {
    Request request;
    ParseError error;
    size_t consumed = xproto::DecodeRequest(view.subspan(offset), &request, &error);
    if (consumed == 0) {
      error.offset += offset;
      ++wire_parse_errors_;
      ++result.parse_errors;
      if (!result.first_parse_error.has_value()) {
        result.first_parse_error = error;
      }
      // A malformed frame still occupies a request slot — the client can
      // correlate the error with what it sent — then poisons the rest of
      // the buffer (no resynchronization after a framing error).
      ++total_requests_;
      if (ClientRec* rec = FindClient(client)) {
        ++rec->sequence;
      }
      current_request_ = xproto::RequestCodeForOpcode(error.opcode);
      RaiseError(client, ErrorForParse(error.code), 0);
      current_request_ = xproto::RequestCode::kNone;
      break;
    }
    offset += consumed;
    ++result.requests_dispatched;
    if (!ApplyRequest(client, std::move(request))) {
      ++result.requests_failed;
    }
  }
  result.bytes_consumed = offset;

  // Drain the connection's outbound reply encoder: the caller (transport or
  // in-process wire client) owns delivery of these frames.
  if (ClientRec* rec = FindClient(client)) {
    result.replies = static_cast<size_t>(rec->replies_sent - replies_before);
    if (!rec->outbound.bytes().empty()) {
      result.reply_bytes = rec->outbound.Take();
    }
  }
  return result;
}

void Server::EmitReply(ClientId client, const xproto::Reply& reply) {
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return;
  }
  size_t start = rec->outbound.bytes().size();
  xproto::EncodeReply(reply, static_cast<uint16_t>(rec->sequence), &rec->outbound);
  std::span<const uint8_t> frame(rec->outbound.bytes().data() + start,
                                 rec->outbound.bytes().size() - start);
  ++rec->replies_sent;
  ++replies_emitted_;
  reply_bytes_emitted_ += frame.size();
  // FNV-1a over the frame, chained across all replies in emission order —
  // the reply-direction half of the replay fingerprint.
  for (uint8_t b : frame) {
    reply_hash_ = (reply_hash_ ^ b) * 1099511628211ull;
  }
  // The trace captures the honest bytes: transport faults (reply mutation,
  // mid-frame resets) happen downstream in Connection, so a replay needs no
  // fault plan to reproduce this stream.
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordReplyBytes(client, frame);
  }
}

bool Server::ApplyRequest(ClientId client, Request&& request) {
  return std::visit(
      [&](auto& r) -> bool {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, xproto::CreateWindowRequest>) {
          return CreateWindow(client, r.window, r.parent, r.geometry, r.border_width,
                              r.window_class, r.override_redirect) != xproto::kNone;
        } else if constexpr (std::is_same_v<T, xproto::DestroyWindowRequest>) {
          return DestroyWindow(client, r.window);
        } else if constexpr (std::is_same_v<T, xproto::MapWindowRequest>) {
          return MapWindow(client, r.window);
        } else if constexpr (std::is_same_v<T, xproto::UnmapWindowRequest>) {
          return UnmapWindow(client, r.window);
        } else if constexpr (std::is_same_v<T, xproto::ReparentWindowRequest>) {
          return ReparentWindow(client, r.window, r.parent, r.position);
        } else if constexpr (std::is_same_v<T, xproto::ConfigureWindowRequest>) {
          ConfigureValues values;
          values.geometry = r.geometry;
          values.border_width = r.border_width;
          values.sibling = r.sibling;
          values.stack_mode = r.stack_mode;
          return ConfigureWindow(client, r.window, r.value_mask, values);
        } else if constexpr (std::is_same_v<T, xproto::SelectInputRequest>) {
          return SelectInput(client, r.window, r.event_mask);
        } else if constexpr (std::is_same_v<T, xproto::ChangeSaveSetRequest>) {
          return ChangeSaveSet(client, r.window, r.add);
        } else if constexpr (std::is_same_v<T, xproto::ChangePropertyRequest>) {
          PropMode mode = r.mode == 1 ? PropMode::kAppend
                          : r.mode == 2 ? PropMode::kPrepend
                                        : PropMode::kReplace;
          return ChangeProperty(client, r.window, r.property, r.type, r.format, mode,
                                std::move(r.data));
        } else if constexpr (std::is_same_v<T, xproto::DeletePropertyRequest>) {
          return DeleteProperty(client, r.window, r.property);
        } else if constexpr (std::is_same_v<T, xproto::SendEventRequest>) {
          return SendEvent(client, r.destination, r.event_mask, std::move(r.event));
        } else if constexpr (std::is_same_v<T, xproto::SetInputFocusRequest>) {
          return SetInputFocus(client, r.window);
        } else if constexpr (std::is_same_v<T, xproto::GrabButtonRequest>) {
          return GrabButton(client, r.window, r.button, r.modifiers, r.event_mask);
        } else if constexpr (std::is_same_v<T, xproto::UngrabButtonRequest>) {
          return UngrabButton(client, r.window, r.button, r.modifiers);
        } else if constexpr (std::is_same_v<T, xproto::ClearWindowRequest>) {
          return ClearWindow(client, r.window);
        } else if constexpr (std::is_same_v<T, xproto::SetWindowBackgroundRequest>) {
          return SetWindowBackground(client, r.window, r.background);
        } else if constexpr (std::is_same_v<T, xproto::SetCursorRequest>) {
          return SetCursor(client, r.window, r.name);
        } else if constexpr (std::is_same_v<T, xproto::DrawRequest>) {
          DrawOp op;
          op.kind = static_cast<DrawOp::Kind>(r.kind);
          op.rect = r.rect;
          op.fill = r.fill;
          op.text = std::move(r.text);
          if (op.kind == DrawOp::Kind::kBitmap && r.bitmap_width > 0 &&
              r.bitmap_height > 0) {
            op.bitmap =
                xbase::Bitmap(r.bitmap_width, r.bitmap_height, std::move(r.bitmap_cells));
          }
          return Draw(client, r.window, std::move(op));
        } else if constexpr (std::is_same_v<T, xproto::ShapeRegionRequest>) {
          return ShapeSetRegion(client, r.window, xbase::Region(std::move(r.rects)));
        } else if constexpr (std::is_same_v<T, xproto::ShapeClearRequest>) {
          return ShapeClear(client, r.window);
        } else if constexpr (std::is_same_v<T, xproto::ShapeSelectRequest>) {
          return ShapeSelect(client, r.window, r.enable);
        } else if constexpr (std::is_same_v<T, xproto::WarpPointerRequest>) {
          return WarpPointer(client, r.dst, r.position);
        } else {
          // Every other request is a query (docs/PROTOCOL.md "Replies"): it
          // takes a sequence slot and the fault hooks like any wire request,
          // then the connection's reply encoder carries the answer.
          RequestGuard guard(this, client, xproto::RequestCodeOf(request));
          if (!guard.ok()) {
            return false;
          }
          Answered answer = Answer(client, request);
          if (const auto* error = std::get_if<xproto::XError>(&answer)) {
            return RaiseError(client, error->code, error->resource_id);
          }
          EmitReply(client, std::get<xproto::Reply>(answer));
          return true;
        }
      },
      request);
}

Server::Answered Server::Answer(ClientId client, const Request& request) {
  auto refuse = [](xproto::ErrorCode code, uint32_t resource_id) -> Answered {
    return xproto::XError{.code = code, .resource_id = resource_id};
  };
  return std::visit(
      [&](const auto& r) -> Answered {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, xproto::GetWindowAttributesRequest>) {
          std::optional<WindowAttributes> attrs = GetWindowAttributes(r.window);
          if (!attrs.has_value()) {
            return refuse(xproto::ErrorCode::kBadWindow, r.window);
          }
          const auto& selections = Find(r.window)->selections;
          auto selected = selections.find(client);
          attrs->your_event_mask = selected == selections.end() ? 0 : selected->second;
          return *attrs;
        } else if constexpr (std::is_same_v<T, xproto::GetGeometryRequest>) {
          const WindowRec* win = Find(r.window);
          if (win == nullptr) {
            return refuse(xproto::ErrorCode::kBadWindow, r.window);
          }
          return xproto::GeometryReply{
              .window = r.window, .geometry = win->geometry, .border_width = win->border_width};
        } else if constexpr (std::is_same_v<T, xproto::QueryTreeRequest>) {
          std::optional<QueryTreeReply> tree = QueryTree(r.window);
          if (!tree.has_value()) {
            return refuse(xproto::ErrorCode::kBadWindow, r.window);
          }
          return std::move(*tree);
        } else if constexpr (std::is_same_v<T, xproto::InternAtomRequest>) {
          return xproto::AtomReply{InternAtom(r.name)};
        } else if constexpr (std::is_same_v<T, xproto::GetAtomNameRequest>) {
          std::optional<std::string> name = GetAtomName(r.atom);
          if (!name.has_value()) {
            return refuse(xproto::ErrorCode::kBadAtom, r.atom);
          }
          return xproto::AtomNameReply{r.atom, std::move(*name)};
        } else if constexpr (std::is_same_v<T, xproto::GetPropertyRequest>) {
          if (!WindowExists(r.window)) {
            return refuse(xproto::ErrorCode::kBadWindow, r.window);
          }
          xproto::PropertyReply reply;
          reply.window = r.window;
          reply.property = r.property;
          // A missing property is not an error in X: found=false says so.
          if (std::optional<PropertyRec> prop = GetProperty(r.window, r.property)) {
            reply.found = true;
            reply.type = prop->type;
            reply.format = prop->format;
            reply.data = std::move(prop->data);
          }
          return reply;
        } else if constexpr (std::is_same_v<T, xproto::TranslateCoordinatesRequest>) {
          std::optional<xbase::Point> position = TranslateCoordinates(r.src, r.dst, r.point);
          if (!position.has_value()) {
            return refuse(xproto::ErrorCode::kBadWindow, WindowExists(r.src) ? r.dst : r.src);
          }
          return xproto::CoordinatesReply{*position};
        } else if constexpr (std::is_same_v<T, xproto::QueryScreensRequest>) {
          // A remote Display has no Server pointer, so the screen layout and
          // its id range travel over the wire like everything else.
          xproto::ScreensReply reply;
          reply.id_base = IdBase(client);
          reply.id_mask = IdMask(client);
          for (const ScreenInfo& info : screens_) {
            reply.screens.push_back({.root = info.root,
                                     .width = info.size.width,
                                     .height = info.size.height,
                                     .monochrome = info.monochrome});
          }
          return reply;
        } else if constexpr (std::is_same_v<T, xproto::GetIdRangeRequest>) {
          return IdRange(client);
        } else if constexpr (std::is_same_v<T, xproto::QueryPointerRequest>) {
          return pointer_;
        } else if constexpr (std::is_same_v<T, xproto::GetInputFocusRequest>) {
          return xproto::FocusReply{focus_window_};
        } else if constexpr (std::is_same_v<T, xproto::ShapeGetRectanglesRequest>) {
          const WindowRec* win = Find(r.window);
          if (win == nullptr) {
            return refuse(xproto::ErrorCode::kBadWindow, r.window);
          }
          xproto::ShapeRectanglesReply reply;
          reply.window = r.window;
          if (win->shape.has_value()) {
            reply.shaped = true;
            reply.rects = win->shape->rects();
          }
          return reply;
        } else {
          return refuse(xproto::ErrorCode::kBadRequest, 0);  // A void request.
        }
      },
      request);
}

}  // namespace xserver
