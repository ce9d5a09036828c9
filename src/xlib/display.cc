#include "src/xlib/display.h"

#include <poll.h>

#include <cstdlib>

#include "src/base/logging.h"
#include "src/base/poller.h"

namespace xlib {

using xproto::AtomId;
using xproto::WindowId;

namespace {

// Wall-clock bound on a remote query round trip.  A healthy server answers
// in microseconds; blowing this means the server died or wedged, and the
// caller gets nullopt (the same shape a server-raised error produces).
constexpr int64_t kRemoteRoundTripMs = 5000;

}  // namespace

Display::Display(xserver::Server* server, std::string client_machine)
    : server_(server), machine_(std::move(client_machine)) {
  client_ = server_->Connect(machine_);
  Setup();
  server_->SetErrorCallback(client_, [this](const xproto::XError& error) { ReportError(error); });
}

Display::Display(const std::string& socket_path, std::string client_machine)
    : server_(nullptr), client_(0), machine_(std::move(client_machine)) {
  std::unique_ptr<xproto::ByteChannel> channel = xproto::ConnectSocket(socket_path);
  if (channel == nullptr) {
    XB_LOG(Warning) << "display: cannot connect to " << socket_path;
    // Leave endpoint_ null-but-remote impossible: park a closed endpoint so
    // remote() stays true and every call fails soft instead of touching a
    // null server_.
    endpoint_ = std::make_unique<xproto::WireClientEndpoint>(nullptr);
    return;
  }
  endpoint_ = std::make_unique<xproto::WireClientEndpoint>(std::move(channel));
  // A failed handshake (timeout, dead socket) leaves Connected() false.
  Setup();
  if (screens_.empty()) {
    XB_LOG(Warning) << "display: QueryScreens handshake failed on " << socket_path;
  }
}

void Display::Setup() {
  std::optional<xproto::ScreensReply> setup =
      Query<xproto::ScreensReply>(xproto::QueryScreensRequest{});
  if (!setup.has_value()) {
    return;
  }
  id_base_ = setup->id_base;
  TakeIdRun(id_base_, uint64_t{setup->id_mask} + 1);
  screens_ = std::move(setup->screens);
}

std::unique_ptr<Display> Display::FromEnv(std::string client_machine) {
  const char* path = std::getenv("SWM_SOCKET");
  if (path == nullptr || *path == '\0') {
    return nullptr;
  }
  auto display = std::make_unique<Display>(std::string(path), std::move(client_machine));
  if (!display->Connected()) {
    return nullptr;
  }
  return display;
}

bool Display::HandleRemoteFrame(std::span<const uint8_t> frame, int want_sequence,
                                std::optional<xproto::Reply>* reply_out) {
  if (frame.empty()) {
    return false;
  }
  xproto::ParseError parse_error;
  if (frame[0] == 0) {  // Error frame.
    xproto::XError error;
    if (xproto::DecodeError(frame, &error, &parse_error) == 0) {
      ++wire_stats_.reply_parse_errors;
      return false;
    }
    ++remote_errors_;
    ReportError(error);
    return want_sequence >= 0 &&
           (error.sequence & 0xffff) == static_cast<uint64_t>(want_sequence);
  }
  if (frame[0] == 1) {  // Reply frame.
    xproto::Reply reply;
    uint16_t sequence = 0;
    if (xproto::DecodeReply(frame, &reply, &parse_error, &sequence) == 0) {
      ++wire_stats_.reply_parse_errors;
      XB_LOG(Warning) << "reply decode failed: " << parse_error.detail;
      return false;
    }
    if (want_sequence >= 0 && sequence == static_cast<uint16_t>(want_sequence)) {
      ++wire_stats_.wire_replies;
      *reply_out = std::move(reply);
      return true;
    }
    // A reply nobody is waiting for: every query consumes its reply before
    // returning, so this is a stale leftover.  Drop it.
    return false;
  }
  // Event frame.
  xproto::Event event;
  if (xproto::DecodeEvent(frame, &event, &parse_error) == 0) {
    ++wire_stats_.reply_parse_errors;
    return false;
  }
  remote_events_.push_back(std::move(event));
  return false;
}

void Display::DrainRemote(bool flush) {
  if (endpoint_ == nullptr) {
    return;
  }
  std::optional<xproto::Reply> unused;
  int64_t deadline = 0;  // Set when the first wait is due.
  for (;;) {
    endpoint_->Flush();
    endpoint_->Poll();
    while (std::optional<std::vector<uint8_t>> frame = endpoint_->NextFrame()) {
      HandleRemoteFrame(*frame, /*want_sequence=*/-1, &unused);
    }
    if (!flush || endpoint_->queued_bytes() == 0 || !endpoint_->open()) {
      return;
    }
    int64_t now = xbase::EventLoop::NowMs();
    if (deadline == 0) {
      deadline = now + kRemoteRoundTripMs;
    }
    int64_t remaining = deadline - now;
    if (remaining <= 0) {
      XB_LOG(Warning) << "display: remote flush timed out";
      return;
    }
    // Reading while we wait keeps a server that is blocked writing to us
    // moving.
    struct pollfd pfd = {};
    pfd.fd = endpoint_->PollFd();
    pfd.events = POLLIN | POLLOUT;
    ::poll(&pfd, 1, static_cast<int>(remaining > 50 ? 50 : remaining));
  }
}

bool Display::RemoteIssue(const xproto::Request& request) {
  if (endpoint_ == nullptr || !endpoint_->open()) {
    return false;
  }
  ++wire_stats_.wire_requests;
  ++remote_sequence_;
  endpoint_->QueueRequest(request);
  // Fire-and-forget, as in real Xlib: a failure surfaces later as an X
  // error frame.  The opportunistic drain keeps the inbound stream moving.
  endpoint_->Flush();
  DrainRemote();
  return endpoint_->open();
}

std::optional<xproto::Reply> Display::RemoteRoundTrip(const xproto::Request& request) {
  if (endpoint_ == nullptr || !endpoint_->open()) {
    return std::nullopt;
  }
  ++wire_stats_.wire_requests;
  uint64_t sequence = ++remote_sequence_;
  int want = static_cast<int>(sequence & 0xffff);
  endpoint_->QueueRequest(request);
  int64_t deadline = xbase::EventLoop::NowMs() + kRemoteRoundTripMs;
  std::optional<xproto::Reply> reply;
  for (;;) {
    endpoint_->Flush();
    endpoint_->Poll();
    while (std::optional<std::vector<uint8_t>> frame = endpoint_->NextFrame()) {
      if (HandleRemoteFrame(*frame, want, &reply)) {
        return reply;  // Matching reply, or nullopt if the server errored.
      }
    }
    if (!endpoint_->open()) {
      return std::nullopt;
    }
    int64_t remaining = deadline - xbase::EventLoop::NowMs();
    if (remaining <= 0) {
      XB_LOG(Warning) << "display: remote round trip timed out (seq " << sequence << ")";
      return std::nullopt;
    }
    struct pollfd pfd = {};
    pfd.fd = endpoint_->PollFd();
    pfd.events = POLLIN;
    if (endpoint_->queued_bytes() > 0) {
      pfd.events |= POLLOUT;
    }
    ::poll(&pfd, 1, static_cast<int>(remaining > 50 ? 50 : remaining));
  }
}

bool Display::Issue(xproto::Request request) {
  if (remote()) {
    return RemoteIssue(request);
  }
  if (!wire_mode_) {
    return server_->ApplyRequest(client_, std::move(request));
  }
  xserver::Server::DispatchResult result = DispatchWire(request);
  return result.requests_dispatched == 1 && result.requests_failed == 0 &&
         result.parse_errors == 0;
}

WindowId Display::MintId() {
  if (next_id_ == id_end_) {
    xproto::IdRangeReply run =
        Query<xproto::IdRangeReply>(xproto::GetIdRangeRequest{}).value_or(xproto::IdRangeReply{});
    TakeIdRun(run.start_id, run.count);
  }
  return next_id_ == id_end_ ? xproto::kNone : static_cast<WindowId>(next_id_++);
}

xserver::Server::DispatchResult Display::DispatchWire(const xproto::Request& request) const {
  ++wire_stats_.wire_requests;
  return server_->DispatchBytes(client_, xproto::EncodeRequestBytes(request));
}

std::optional<xproto::Reply> Display::Query(xproto::Request request) const {
  if (remote()) {
    return const_cast<Display*>(this)->RemoteRoundTrip(request);
  }
  if (!wire_mode_) {
    xserver::Server::Answered answer = server_->Answer(client_, request);
    if (auto* reply = std::get_if<xproto::Reply>(&answer)) {
      return std::move(*reply);
    }
    return std::nullopt;
  }
  xserver::Server::DispatchResult result = DispatchWire(request);
  if (result.reply_bytes.empty()) {
    return std::nullopt;  // The server raised an X error instead of replying.
  }
  xproto::Reply reply;
  xproto::ParseError error;
  if (xproto::DecodeReply(result.reply_bytes, &reply, &error) == 0) {
    ++wire_stats_.reply_parse_errors;
    XB_LOG(Warning) << "reply decode failed: " << error.detail;
    return std::nullopt;
  }
  ++wire_stats_.wire_replies;
  return reply;
}

void Display::ReportError(const xproto::XError& error) {
  last_error_ = error;
  if (error_handler_) {
    error_handler_(error);
  } else {
    XB_LOG(Warning) << "X error: " << xproto::ErrorText(error);
  }
}

Display::XErrorHandler Display::SetErrorHandler(XErrorHandler handler) {
  XErrorHandler previous = std::move(error_handler_);
  error_handler_ = std::move(handler);
  return previous;
}

Display::~Display() {
  if (remote()) {
    // Closing the socket is our disconnect: the server's readiness loop sees
    // EOF, drains, and sweeps this client's windows.
    endpoint_->Close();
    return;
  }
  if (server_->HasClient(client_)) {
    server_->Disconnect(client_);
  }
}

WindowId Display::CreateWindow(WindowId parent, const xbase::Rect& geometry, int border_width,
                               bool override_redirect, xproto::WindowClass window_class) {
  // As in Xlib, the id is the client's choice and nothing waits: a remote
  // failure arrives later as an X error.
  WindowId window = MintId();
  if (window == xproto::kNone) {
    return xproto::kNone;
  }
  bool issued = Issue(xproto::CreateWindowRequest{.window = window,
                                                  .parent = parent,
                                                  .geometry = geometry,
                                                  .border_width = border_width,
                                                  .window_class = window_class,
                                                  .override_redirect = override_redirect});
  return issued ? window : xproto::kNone;
}

bool Display::DestroyWindow(WindowId window) {
  return Issue(xproto::DestroyWindowRequest{.window = window});
}

bool Display::MapWindow(WindowId window) {
  return Issue(xproto::MapWindowRequest{.window = window});
}

bool Display::MapRaised(WindowId window) {
  RaiseWindow(window);
  return MapWindow(window);
}

bool Display::UnmapWindow(WindowId window) {
  return Issue(xproto::UnmapWindowRequest{.window = window});
}

bool Display::ReparentWindow(WindowId window, WindowId parent, const xbase::Point& position) {
  return Issue(
      xproto::ReparentWindowRequest{.window = window, .parent = parent, .position = position});
}

bool Display::ConfigureWindow(WindowId window, uint16_t value_mask,
                              const xserver::ConfigureValues& values) {
  return Issue(xproto::ConfigureWindowRequest{.window = window,
                                              .value_mask = value_mask,
                                              .geometry = values.geometry,
                                              .border_width = values.border_width,
                                              .sibling = values.sibling,
                                              .stack_mode = values.stack_mode});
}

bool Display::MoveWindow(WindowId window, const xbase::Point& position) {
  xserver::ConfigureValues values;
  values.geometry.x = position.x;
  values.geometry.y = position.y;
  return ConfigureWindow(window, xproto::kConfigX | xproto::kConfigY, values);
}

bool Display::ResizeWindow(WindowId window, const xbase::Size& size) {
  xserver::ConfigureValues values;
  values.geometry.width = size.width;
  values.geometry.height = size.height;
  return ConfigureWindow(window, xproto::kConfigWidth | xproto::kConfigHeight, values);
}

bool Display::MoveResizeWindow(WindowId window, const xbase::Rect& geometry) {
  xserver::ConfigureValues values;
  values.geometry = geometry;
  return ConfigureWindow(
      window, xproto::kConfigX | xproto::kConfigY | xproto::kConfigWidth | xproto::kConfigHeight,
      values);
}

bool Display::RaiseWindow(WindowId window) {
  xserver::ConfigureValues values;
  values.stack_mode = xproto::StackMode::kAbove;
  return ConfigureWindow(window, xproto::kConfigStackMode, values);
}

bool Display::LowerWindow(WindowId window) {
  xserver::ConfigureValues values;
  values.stack_mode = xproto::StackMode::kBelow;
  return ConfigureWindow(window, xproto::kConfigStackMode, values);
}

bool Display::SelectInput(WindowId window, uint32_t event_mask) {
  return Issue(xproto::SelectInputRequest{.window = window, .event_mask = event_mask});
}

bool Display::AddToSaveSet(WindowId window) {
  return Issue(xproto::ChangeSaveSetRequest{.window = window, .add = true});
}

bool Display::RemoveFromSaveSet(WindowId window) {
  return Issue(xproto::ChangeSaveSetRequest{.window = window, .add = false});
}

std::optional<xserver::WindowAttributes> Display::GetWindowAttributes(WindowId window) const {
  return Query<xproto::AttributesReply>(xproto::GetWindowAttributesRequest{.window = window});
}

std::optional<xbase::Rect> Display::GetGeometry(WindowId window) const {
  auto r = Query<xproto::GeometryReply>(xproto::GetGeometryRequest{.window = window});
  return r.has_value() ? std::optional<xbase::Rect>(r->geometry) : std::nullopt;
}

std::optional<xserver::QueryTreeReply> Display::QueryTree(WindowId window) const {
  return Query<xproto::TreeReply>(xproto::QueryTreeRequest{.window = window});
}

std::optional<xbase::Point> Display::TranslateCoordinates(WindowId src, WindowId dst,
                                                          const xbase::Point& point) const {
  auto r = Query<xproto::CoordinatesReply>(
      xproto::TranslateCoordinatesRequest{.src = src, .dst = dst, .point = point});
  return r.has_value() ? std::optional<xbase::Point>(r->position) : std::nullopt;
}

AtomId Display::InternAtom(const std::string& name) {
  auto r = Query<xproto::AtomReply>(xproto::InternAtomRequest{.name = name});
  return r.has_value() ? r->atom : xproto::kAtomNone;
}

std::optional<std::string> Display::GetAtomName(AtomId atom) const {
  auto r = Query<xproto::AtomNameReply>(xproto::GetAtomNameRequest{.atom = atom});
  return r.has_value() ? std::optional<std::string>(std::move(r->name)) : std::nullopt;
}

bool Display::ChangeProperty(WindowId window, AtomId property, AtomId type, int format,
                             xserver::PropMode mode, std::vector<uint8_t> data) {
  return Issue(xproto::ChangePropertyRequest{.window = window,
                                             .property = property,
                                             .type = type,
                                             .format = format,
                                             .mode = static_cast<uint8_t>(mode),
                                             .data = std::move(data)});
}

std::optional<xserver::PropertyRec> Display::GetProperty(WindowId window,
                                                         AtomId property) const {
  auto r = Query<xproto::PropertyReply>(
      xproto::GetPropertyRequest{.window = window, .property = property});
  if (!r.has_value() || !r->found) {
    return std::nullopt;
  }
  return xserver::PropertyRec{.type = r->type, .format = r->format, .data = std::move(r->data)};
}

bool Display::DeleteProperty(WindowId window, AtomId property) {
  return Issue(xproto::DeletePropertyRequest{.window = window, .property = property});
}

bool Display::SetStringProperty(WindowId window, const std::string& name,
                                const std::string& value) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("STRING");
  std::vector<uint8_t> data(value.begin(), value.end());
  return ChangeProperty(window, prop, type, 8, xserver::PropMode::kReplace, std::move(data));
}

std::optional<std::string> Display::GetStringProperty(WindowId window,
                                                      const std::string& name) const {
  auto rec = GetProperty(window, const_cast<Display*>(this)->InternAtom(name));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  return std::string(rec->data.begin(), rec->data.end());
}

bool Display::AppendStringProperty(WindowId window, const std::string& name,
                                   const std::string& value) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("STRING");
  std::vector<uint8_t> data(value.begin(), value.end());
  return ChangeProperty(window, prop, type, 8, xserver::PropMode::kAppend, std::move(data));
}

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  out->push_back(static_cast<uint8_t>(value & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 8) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 16) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 24) & 0xff));
}

std::optional<std::vector<uint32_t>> GetU32s(const xserver::PropertyRec& rec) {
  if (rec.format != 32 || rec.data.size() % 4 != 0) {
    return std::nullopt;
  }
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rec.data.size(); i += 4) {
    out.push_back(static_cast<uint32_t>(rec.data[i]) |
                  (static_cast<uint32_t>(rec.data[i + 1]) << 8) |
                  (static_cast<uint32_t>(rec.data[i + 2]) << 16) |
                  (static_cast<uint32_t>(rec.data[i + 3]) << 24));
  }
  return out;
}

}  // namespace

bool Display::SetCardinalProperty(WindowId window, const std::string& name,
                                  const std::vector<uint32_t>& values) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("CARDINAL");
  std::vector<uint8_t> data;
  for (uint32_t v : values) {
    PutU32(&data, v);
  }
  return ChangeProperty(window, prop, type, 32, xserver::PropMode::kReplace, std::move(data));
}

std::optional<std::vector<uint32_t>> Display::GetCardinalProperty(
    WindowId window, const std::string& name) const {
  auto rec = GetProperty(window, const_cast<Display*>(this)->InternAtom(name));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  return GetU32s(*rec);
}

bool Display::SetWindowIdProperty(WindowId window, const std::string& name, WindowId value) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("WINDOW");
  std::vector<uint8_t> data;
  PutU32(&data, value);
  return ChangeProperty(window, prop, type, 32, xserver::PropMode::kReplace, std::move(data));
}

std::optional<WindowId> Display::GetWindowIdProperty(WindowId window,
                                                     const std::string& name) const {
  auto rec = GetProperty(window, const_cast<Display*>(this)->InternAtom(name));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  auto values = GetU32s(*rec);
  if (!values.has_value() || values->empty()) {
    return std::nullopt;
  }
  return (*values)[0];
}

bool Display::SendEvent(WindowId destination, uint32_t event_mask, xproto::Event event) {
  return Issue(xproto::SendEventRequest{
      .destination = destination, .event_mask = event_mask, .event = std::move(event)});
}

bool Display::SetInputFocus(WindowId window) {
  return Issue(xproto::SetInputFocusRequest{.window = window});
}

std::optional<xproto::Event> Display::NextEvent() {
  if (remote()) {
    DrainRemote(/*flush=*/true);
    if (remote_events_.empty()) {
      return std::nullopt;
    }
    xproto::Event event = std::move(remote_events_.front());
    remote_events_.pop_front();
    return event;
  }
  return server_->NextEvent(client_);
}

size_t Display::Pending() const {
  if (remote()) {
    const_cast<Display*>(this)->DrainRemote(/*flush=*/true);
    return remote_events_.size();
  }
  return server_->PendingEvents(client_);
}

bool Display::GrabButton(WindowId window, int button, uint32_t modifiers,
                         uint32_t event_mask) {
  return Issue(xproto::GrabButtonRequest{
      .window = window, .button = button, .modifiers = modifiers, .event_mask = event_mask});
}

bool Display::UngrabButton(WindowId window, int button, uint32_t modifiers) {
  return Issue(
      xproto::UngrabButtonRequest{.window = window, .button = button, .modifiers = modifiers});
}

xproto::WindowId Display::GetInputFocus() const {
  auto r = Query<xproto::FocusReply>(xproto::GetInputFocusRequest{});
  return r.has_value() ? r->window : xproto::kNone;
}

xserver::PointerState Display::QueryPointer() const {
  return Query<xproto::PointerReply>(xproto::QueryPointerRequest{}).value_or(
      xproto::PointerReply{});
}

std::optional<xbase::Region> Display::GetShape(WindowId window) const {
  auto r = Query<xproto::ShapeRectanglesReply>(xproto::ShapeGetRectanglesRequest{.window = window});
  if (!r.has_value() || !r->shaped) {
    return std::nullopt;
  }
  return xbase::Region(std::move(r->rects));
}

bool Display::IsShaped(WindowId window) const {
  auto r = Query<xproto::ShapeRectanglesReply>(xproto::ShapeGetRectanglesRequest{.window = window});
  return r.has_value() && r->shaped;
}

bool Display::ShapeSetMask(WindowId window, const xbase::Bitmap& mask) {
  return ShapeSetRegion(window, mask.ToRegion());
}

void Display::WarpPointer(int screen, const xbase::Point& root_pos) {
  Issue(xproto::WarpPointerRequest{.dst = RootWindow(screen), .position = root_pos});
}

bool Display::ShapeSetRegion(WindowId window, xbase::Region region) {
  return Issue(xproto::ShapeRegionRequest{.window = window, .rects = region.rects()});
}

bool Display::ShapeClear(WindowId window) {
  return Issue(xproto::ShapeClearRequest{.window = window});
}

bool Display::ShapeSelect(WindowId window, bool enable) {
  return Issue(xproto::ShapeSelectRequest{.window = window, .enable = enable});
}

bool Display::SetWindowBackground(WindowId window, char background) {
  return Issue(xproto::SetWindowBackgroundRequest{.window = window, .background = background});
}

bool Display::SetCursor(WindowId window, const std::string& name) {
  return Issue(xproto::SetCursorRequest{.window = window, .name = name});
}

bool Display::ClearWindow(WindowId window) {
  return Issue(xproto::ClearWindowRequest{.window = window});
}

bool Display::Draw(WindowId window, xserver::DrawOp op) {
  xproto::DrawRequest request;
  request.window = window;
  request.kind = static_cast<uint8_t>(op.kind);
  request.rect = op.rect;
  request.fill = op.fill;
  request.text = std::move(op.text);
  if (!op.bitmap.IsEmpty()) {
    request.bitmap_width = op.bitmap.width();
    request.bitmap_height = op.bitmap.height();
    request.bitmap_cells = op.bitmap.TakeCells();
  }
  return Issue(std::move(request));
}

}  // namespace xlib
