#include "src/xlib/icccm.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/xproto/sanitize.h"

namespace xlib {

using xproto::AtomId;
using xproto::WindowId;

namespace {

// Sanitizer rejections log once per (window, kind): the first garbage
// property from a window is news, the next thousand are the same news.
constexpr int kLogOncePerWindow = 1 << 30;

// Every property kind the getters sanitize; the log throttle holds at most
// one key per (kind, window), and ForgetSanitizerLog frees all of them.
enum SanitizedKind {
  kWmNameKind,
  kWmIconNameKind,
  kWmClientMachineKind,
  kWmTransientForKind,
  kWmClassKind,
  kWmCommandKind,
  kWmNormalHintsKind,
  kWmHintsKind,
  kSanitizedKindCount,
};

constexpr const char* kSanitizedKindNames[kSanitizedKindCount] = {
    "WM_NAME",  "WM_ICON_NAME", "WM_CLIENT_MACHINE", "WM_TRANSIENT_FOR",
    "WM_CLASS", "WM_COMMAND",   "WM_NORMAL_HINTS",   "WM_HINTS",
};

std::string SanitizerLogKey(SanitizedKind kind, WindowId window) {
  return std::string("icccm:") + kSanitizedKindNames[kind] + ":" + std::to_string(window);
}

void LogSanitized(WindowId window, SanitizedKind kind) {
  XB_LOG_EVERY_N(Warning, SanitizerLogKey(kind, window), kLogOncePerWindow)
      << "icccm: sanitized " << kSanitizedKindNames[kind] << " from window " << window;
}

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  out->push_back(static_cast<uint8_t>(value & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 8) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 16) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 24) & 0xff));
}

void PutI32(std::vector<uint8_t>* out, int32_t value) {
  PutU32(out, static_cast<uint32_t>(value));
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  uint32_t U32() {
    if (pos_ + 4 > data_.size()) {
      ok_ = false;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(data_[pos_]) |
                 (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }

  int32_t I32() { return static_cast<int32_t>(U32()); }

  // Tolerant variants for struct-shaped properties: a property truncated
  // mid-field keeps its decoded prefix and defaults the rest, like Xlib's
  // XGetWMNormalHints accepting short pre-ICCCM hints.  Sets truncated().
  uint32_t U32Or(uint32_t fallback) {
    if (pos_ + 4 > data_.size()) {
      truncated_ = truncated_ || pos_ < data_.size();
      exhausted_ = true;
      pos_ = data_.size();
      return fallback;
    }
    return U32();
  }

  int32_t I32Or(int32_t fallback) {
    return static_cast<int32_t>(U32Or(static_cast<uint32_t>(fallback)));
  }

  // True when a tolerant read hit a partial trailing field (not a clean end).
  bool truncated() const { return truncated_; }
  // True when any tolerant read ran past the end (clean or not).
  bool exhausted() const { return exhausted_; }

  std::string Rest() {
    std::string s(data_.begin() + static_cast<long>(pos_), data_.end());
    pos_ = data_.size();
    return s;
  }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
  bool ok_ = true;
  bool truncated_ = false;
  bool exhausted_ = false;
};

}  // namespace

void ForgetSanitizerLog(WindowId window) {
  for (int kind = 0; kind < kSanitizedKindCount; ++kind) {
    xbase::ForgetLogThrottle(SanitizerLogKey(static_cast<SanitizedKind>(kind), window));
  }
}

// ---- Simple string properties -------------------------------------------------

namespace {

// Shared by the capped string getters: fetch, then run the sanitizer with
// the per-window dedupe on the log line.
std::optional<std::string> GetSanitizedString(Display* dpy, WindowId window,
                                              const char* atom, size_t cap,
                                              SanitizedKind kind) {
  std::optional<std::string> raw = dpy->GetStringProperty(window, atom);
  if (!raw.has_value()) {
    return std::nullopt;
  }
  if (xproto::SanitizeClientString(&*raw, cap, dpy->mutable_sanitizer_stats())) {
    LogSanitized(window, kind);
  }
  return raw;
}

}  // namespace

bool SetWmName(Display* dpy, WindowId window, const std::string& name) {
  return dpy->SetStringProperty(window, xproto::kAtomWmName, name);
}

std::optional<std::string> GetWmName(Display* dpy, WindowId window) {
  return GetSanitizedString(dpy, window, xproto::kAtomWmName,
                            xproto::kMaxWmStringBytes, kWmNameKind);
}

bool SetWmIconName(Display* dpy, WindowId window, const std::string& name) {
  return dpy->SetStringProperty(window, xproto::kAtomWmIconName, name);
}

std::optional<std::string> GetWmIconName(Display* dpy, WindowId window) {
  return GetSanitizedString(dpy, window, xproto::kAtomWmIconName,
                            xproto::kMaxWmStringBytes, kWmIconNameKind);
}

bool SetWmClientMachine(Display* dpy, WindowId window, const std::string& machine) {
  return dpy->SetStringProperty(window, xproto::kAtomWmClientMachine, machine);
}

std::optional<std::string> GetWmClientMachine(Display* dpy, WindowId window) {
  return GetSanitizedString(dpy, window, xproto::kAtomWmClientMachine,
                            xproto::kMaxWmStringBytes, kWmClientMachineKind);
}

// ---- WM_TRANSIENT_FOR ------------------------------------------------------

bool SetTransientForHint(Display* dpy, WindowId window, WindowId owner) {
  return dpy->SetWindowIdProperty(window, xproto::kAtomWmTransientFor, owner);
}

std::optional<WindowId> GetTransientForHint(Display* dpy, WindowId window) {
  std::optional<WindowId> owner =
      dpy->GetWindowIdProperty(window, xproto::kAtomWmTransientFor);
  if (!owner.has_value()) {
    return std::nullopt;
  }
  WindowId sanitized =
      xproto::SanitizeTransientFor(window, *owner, dpy->mutable_sanitizer_stats());
  if (sanitized != *owner) {
    LogSanitized(window, kWmTransientForKind);
  }
  return sanitized;
}

// ---- WM_CLASS --------------------------------------------------------------

bool SetWmClass(Display* dpy, WindowId window, const xproto::WmClass& wm_class) {
  std::string encoded = wm_class.instance + '\0' + wm_class.clazz + '\0';
  return dpy->SetStringProperty(window, xproto::kAtomWmClass, encoded);
}

std::optional<xproto::WmClass> GetWmClass(Display* dpy, WindowId window) {
  std::optional<std::string> raw = dpy->GetStringProperty(window, xproto::kAtomWmClass);
  if (!raw.has_value()) {
    return std::nullopt;
  }
  xproto::WmClass out;
  if (xproto::DecodeWmClass(*raw, &out, dpy->mutable_sanitizer_stats())) {
    LogSanitized(window, kWmClassKind);
  }
  return out;
}

// ---- WM_COMMAND --------------------------------------------------------------

bool SetWmCommand(Display* dpy, WindowId window, const std::vector<std::string>& argv) {
  std::string encoded;
  for (const std::string& arg : argv) {
    encoded += arg;
    encoded += '\0';
  }
  return dpy->SetStringProperty(window, xproto::kAtomWmCommand, encoded);
}

std::optional<std::vector<std::string>> GetWmCommand(Display* dpy, WindowId window) {
  std::optional<std::string> raw = dpy->GetStringProperty(window, xproto::kAtomWmCommand);
  if (!raw.has_value()) {
    return std::nullopt;
  }
  bool repaired = false;
  if (raw->size() > xproto::kMaxWmCommandBytes) {
    raw->resize(xproto::kMaxWmCommandBytes);
    ++dpy->mutable_sanitizer_stats()->strings_truncated;
    repaired = true;
  }
  std::vector<std::string> argv;
  std::string cur;
  for (char c : *raw) {
    if (c == '\0') {
      argv.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    argv.push_back(cur);  // Tolerate a missing trailing NUL.
  }
  for (std::string& arg : argv) {
    repaired |= xproto::SanitizeClientString(&arg, xproto::kMaxWmStringBytes,
                                             dpy->mutable_sanitizer_stats());
  }
  if (repaired) {
    LogSanitized(window, kWmCommandKind);
  }
  return argv;
}

// ---- WM_NORMAL_HINTS -----------------------------------------------------------

bool SetWmNormalHints(Display* dpy, WindowId window, const xproto::SizeHints& hints) {
  std::vector<uint8_t> data;
  PutU32(&data, hints.flags);
  PutI32(&data, hints.x);
  PutI32(&data, hints.y);
  PutI32(&data, hints.width);
  PutI32(&data, hints.height);
  PutI32(&data, hints.min_width);
  PutI32(&data, hints.min_height);
  PutI32(&data, hints.max_width);
  PutI32(&data, hints.max_height);
  PutI32(&data, hints.width_inc);
  PutI32(&data, hints.height_inc);
  AtomId prop = dpy->InternAtom(xproto::kAtomWmNormalHints);
  AtomId type = dpy->InternAtom("WM_SIZE_HINTS");
  return dpy->ChangeProperty(window, prop, type, 32, xserver::PropMode::kReplace, data);
}

std::optional<xproto::SizeHints> GetWmNormalHints(Display* dpy, WindowId window) {
  auto rec = dpy->GetProperty(window, dpy->InternAtom(xproto::kAtomWmNormalHints));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  if (rec->data.empty()) {
    return std::nullopt;
  }
  // Tolerant decode: a property truncated mid-struct keeps the fields that
  // made it across and defaults the rest (hostile or buggy clients must not
  // strip a window of all hints just by sending a short property).
  Reader reader(rec->data);
  xproto::SizeHints hints;
  const xproto::SizeHints defaults;
  hints.flags = reader.U32Or(0);
  hints.x = reader.I32Or(defaults.x);
  hints.y = reader.I32Or(defaults.y);
  hints.width = reader.I32Or(defaults.width);
  hints.height = reader.I32Or(defaults.height);
  hints.min_width = reader.I32Or(defaults.min_width);
  hints.min_height = reader.I32Or(defaults.min_height);
  hints.max_width = reader.I32Or(defaults.max_width);
  hints.max_height = reader.I32Or(defaults.max_height);
  hints.width_inc = reader.I32Or(defaults.width_inc);
  hints.height_inc = reader.I32Or(defaults.height_inc);
  bool repaired = false;
  if (reader.truncated() || reader.exhausted()) {
    ++dpy->mutable_sanitizer_stats()->truncated_decodes;
    repaired = true;
  }
  repaired |= xproto::SanitizeSizeHints(&hints, dpy->mutable_sanitizer_stats());
  if (repaired) {
    LogSanitized(window, kWmNormalHintsKind);
  }
  return hints;
}

// ---- WM_HINTS --------------------------------------------------------------------

bool SetWmHints(Display* dpy, WindowId window, const xproto::WmHints& hints) {
  std::vector<uint8_t> data;
  PutU32(&data, hints.flags);
  PutU32(&data, hints.input ? 1 : 0);
  PutU32(&data, static_cast<uint32_t>(hints.initial_state));
  PutU32(&data, hints.icon_window);
  PutI32(&data, hints.icon_position.x);
  PutI32(&data, hints.icon_position.y);
  // The icon pixmap id is modeled as a named bitmap appended as bytes.
  for (char c : hints.icon_pixmap_name) {
    data.push_back(static_cast<uint8_t>(c));
  }
  AtomId prop = dpy->InternAtom(xproto::kAtomWmHints);
  AtomId type = dpy->InternAtom("WM_HINTS");
  return dpy->ChangeProperty(window, prop, type, 8, xserver::PropMode::kReplace, data);
}

std::optional<xproto::WmHints> GetWmHints(Display* dpy, WindowId window) {
  auto rec = dpy->GetProperty(window, dpy->InternAtom(xproto::kAtomWmHints));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  if (rec->data.empty()) {
    return std::nullopt;
  }
  // Tolerant decode, mirroring GetWmNormalHints: keep the decoded prefix.
  Reader reader(rec->data);
  xproto::WmHints hints;
  const xproto::WmHints defaults;
  hints.flags = reader.U32Or(0);
  hints.input = reader.U32Or(defaults.input ? 1 : 0) != 0;
  hints.initial_state = static_cast<xproto::WmState>(
      reader.U32Or(static_cast<uint32_t>(defaults.initial_state)));
  hints.icon_window = reader.U32Or(defaults.icon_window);
  hints.icon_position.x = reader.I32Or(defaults.icon_position.x);
  hints.icon_position.y = reader.I32Or(defaults.icon_position.y);
  hints.icon_pixmap_name = reader.Rest();
  bool repaired = false;
  if (reader.truncated() || reader.exhausted()) {
    ++dpy->mutable_sanitizer_stats()->truncated_decodes;
    repaired = true;
  }
  repaired |= xproto::SanitizeWmHints(&hints, dpy->mutable_sanitizer_stats());
  repaired |= xproto::SanitizeClientString(&hints.icon_pixmap_name,
                                           xproto::kMaxIconNameBytes,
                                           dpy->mutable_sanitizer_stats());
  if (repaired) {
    LogSanitized(window, kWmHintsKind);
  }
  return hints;
}

// ---- WM_STATE ----------------------------------------------------------------------

bool SetWmState(Display* dpy, WindowId window, xproto::WmState state, WindowId icon_window) {
  std::vector<uint8_t> data;
  PutU32(&data, static_cast<uint32_t>(state));
  PutU32(&data, icon_window);
  AtomId prop = dpy->InternAtom(xproto::kAtomWmState);
  return dpy->ChangeProperty(window, prop, prop, 32, xserver::PropMode::kReplace, data);
}

std::optional<WmStateValue> GetWmState(Display* dpy, WindowId window) {
  auto rec = dpy->GetProperty(window, dpy->InternAtom(xproto::kAtomWmState));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  Reader reader(rec->data);
  WmStateValue out;
  out.state = static_cast<xproto::WmState>(reader.U32());
  out.icon_window = reader.U32();
  if (!reader.ok()) {
    return std::nullopt;
  }
  return out;
}

// ---- WM_PROTOCOLS ---------------------------------------------------------------------

bool SetWmProtocols(Display* dpy, WindowId window,
                    const std::vector<std::string>& protocols) {
  std::vector<uint8_t> data;
  for (const std::string& protocol : protocols) {
    PutU32(&data, dpy->InternAtom(protocol));
  }
  AtomId prop = dpy->InternAtom(xproto::kAtomWmProtocols);
  AtomId type = dpy->InternAtom("ATOM");
  return dpy->ChangeProperty(window, prop, type, 32, xserver::PropMode::kReplace, data);
}

std::optional<std::vector<std::string>> GetWmProtocols(Display* dpy, WindowId window) {
  auto rec = dpy->GetProperty(window, dpy->InternAtom(xproto::kAtomWmProtocols));
  if (!rec.has_value() || rec->format != 32) {
    return std::nullopt;
  }
  Reader reader(rec->data);
  std::vector<std::string> out;
  while (!reader.AtEnd()) {
    AtomId atom = reader.U32();
    if (!reader.ok()) {
      return std::nullopt;
    }
    std::optional<std::string> name = dpy->GetAtomName(atom);
    if (name.has_value()) {
      out.push_back(*name);
    }
  }
  return out;
}

// ---- Client messages ---------------------------------------------------------------------

bool RequestIconify(Display* dpy, WindowId window, int screen) {
  xproto::ClientMessageEvent message;
  message.window = window;
  message.message_type = dpy->InternAtom("WM_CHANGE_STATE");
  message.format = 32;
  message.data[0] = static_cast<uint32_t>(xproto::WmState::kIconic);
  return dpy->SendEvent(dpy->RootWindow(screen),
                        xproto::kSubstructureRedirectMask | xproto::kSubstructureNotifyMask,
                        xproto::Event{message});
}

bool SendDeleteWindow(Display* dpy, WindowId window) {
  xproto::ClientMessageEvent message;
  message.window = window;
  message.message_type = dpy->InternAtom(xproto::kAtomWmProtocols);
  message.format = 32;
  message.data[0] = dpy->InternAtom(xproto::kAtomWmDeleteWindow);
  return dpy->SendEvent(window, 0, xproto::Event{message});
}

bool SendSyntheticConfigureNotify(Display* dpy, WindowId window,
                                  const xbase::Rect& root_relative_geometry) {
  xproto::ConfigureNotifyEvent notify;
  notify.event_window = window;
  notify.window = window;
  notify.geometry = root_relative_geometry;
  notify.synthetic = true;
  return dpy->SendEvent(window, xproto::kStructureNotifyMask, xproto::Event{notify});
}

}  // namespace xlib
