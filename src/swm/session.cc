#include "src/swm/session.h"

#include <algorithm>
#include <sstream>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/xproto/hints.h"

namespace swm {

namespace {

std::string StateName(xproto::WmState state) {
  return state == xproto::WmState::kIconic ? "IconicState" : "NormalState";
}

std::optional<xproto::WmState> StateFromName(const std::string& name) {
  if (name == "NormalState") {
    return xproto::WmState::kNormal;
  }
  if (name == "IconicState") {
    return xproto::WmState::kIconic;
  }
  return std::nullopt;
}

// Bounds on SWM_RESTART_INFO (anyone can append to a root property, so the
// parser must not be a memory amplifier): total text, per-line length, and
// record count are all capped; excess is dropped with a throttled warning.
constexpr size_t kMaxRestartText = 256 * 1024;
constexpr size_t kMaxRestartLine = 4096;
constexpr size_t kMaxRestartRecords = 256;

}  // namespace

std::string SwmHintsRecord::Encode() const {
  std::ostringstream os;
  os << "swmhints -geometry " << geometry.ToString();
  if (icon_position.has_value()) {
    os << " -icongeometry +" << icon_position->x << "+" << icon_position->y;
  }
  os << " -state " << StateName(state);
  if (sticky) {
    os << " -sticky";
  }
  if (!icon_on_root) {
    os << " -iconheld";
  }
  if (!machine.empty()) {
    os << " -host " << machine;
  }
  os << " -cmd " << xbase::ShellJoin({command});
  return os.str();
}

std::optional<SwmHintsRecord> SwmHintsRecord::Parse(const std::string& line) {
  std::vector<std::string> argv = xbase::ShellSplit(line);
  if (argv.empty() || argv[0] != "swmhints") {
    return std::nullopt;
  }
  SwmHintsRecord record;
  bool have_geometry = false;
  bool have_command = false;
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argv.size()) {
        return std::nullopt;
      }
      return argv[++i];
    };
    if (flag == "-geometry") {
      std::optional<std::string> value = next();
      if (!value.has_value()) {
        return std::nullopt;
      }
      std::optional<xbase::GeometrySpec> spec = xbase::ParseGeometry(*value);
      if (!spec.has_value() || !spec->width || !spec->x) {
        return std::nullopt;
      }
      record.geometry = {spec->x.value_or(0), spec->y.value_or(0), *spec->width,
                         *spec->height};
      // Bounds: a forged record must not smuggle insane geometry past the
      // ICCCM sanitizer (it never passes through a property decoder).
      record.geometry.x =
          std::clamp(record.geometry.x, -xproto::kMaxCoordinate, xproto::kMaxCoordinate);
      record.geometry.y =
          std::clamp(record.geometry.y, -xproto::kMaxCoordinate, xproto::kMaxCoordinate);
      record.geometry.width = std::clamp(record.geometry.width, 1, xproto::kMaxCoordinate);
      record.geometry.height = std::clamp(record.geometry.height, 1, xproto::kMaxCoordinate);
      have_geometry = true;
    } else if (flag == "-icongeometry") {
      std::optional<std::string> value = next();
      if (!value.has_value()) {
        return std::nullopt;
      }
      std::optional<xbase::GeometrySpec> spec = xbase::ParseGeometry(*value);
      if (!spec.has_value() || !spec->x) {
        return std::nullopt;
      }
      record.icon_position = xbase::Point{
          std::clamp(*spec->x, -xproto::kMaxCoordinate, xproto::kMaxCoordinate),
          std::clamp(spec->y.value_or(0), -xproto::kMaxCoordinate,
                     xproto::kMaxCoordinate)};
    } else if (flag == "-state") {
      std::optional<std::string> value = next();
      if (!value.has_value()) {
        return std::nullopt;
      }
      std::optional<xproto::WmState> state = StateFromName(*value);
      if (!state.has_value()) {
        return std::nullopt;
      }
      record.state = *state;
    } else if (flag == "-sticky") {
      record.sticky = true;
    } else if (flag == "-iconheld") {
      record.icon_on_root = false;
    } else if (flag == "-host") {
      std::optional<std::string> value = next();
      if (!value.has_value()) {
        return std::nullopt;
      }
      record.machine = *value;
    } else if (flag == "-cmd") {
      std::optional<std::string> value = next();
      if (!value.has_value()) {
        return std::nullopt;
      }
      record.command = *value;
      have_command = true;
    } else {
      // Unknown flag: ignored, for forward compat.  One throttle key for all
      // flags: the flag text is client-chosen, so keying on it would let a
      // client grow the throttle table without bound.
      XB_LOG_EVERY_N(Warning, "swmhints:unknown-flag", 16)
          << "swmhints: unknown flag " << flag;
    }
  }
  if (!have_geometry || !have_command) {
    return std::nullopt;
  }
  return record;
}

std::optional<SwmHintsRecord> RestartTable::MatchAndConsume(const std::string& command,
                                                            const std::string& machine) {
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (it->command != command) {
      continue;
    }
    if (!it->machine.empty() && !machine.empty() && it->machine != machine) {
      continue;
    }
    SwmHintsRecord record = *it;
    records_.erase(it);
    return record;
  }
  return std::nullopt;
}

RestartTable RestartTable::FromPropertyText(const std::string& text) {
  RestartTable table;
  std::string bounded = text;
  if (bounded.size() > kMaxRestartText) {
    XB_LOG_EVERY_N(Warning, "swm:restart-text-cap", 16)
        << "swm: SWM_RESTART_INFO of " << text.size()
        << " bytes exceeds cap; truncating to " << kMaxRestartText;
    bounded.resize(kMaxRestartText);
    // Drop the now-partial trailing line rather than parse half a record.
    size_t last_newline = bounded.find_last_of('\n');
    bounded.resize(last_newline == std::string::npos ? 0 : last_newline);
  }
  std::istringstream stream(bounded);
  std::string line;
  while (std::getline(stream, line)) {
    if (table.size() >= kMaxRestartRecords) {
      XB_LOG_EVERY_N(Warning, "swm:restart-record-cap", 16)
          << "swm: restart table full (" << kMaxRestartRecords
          << " records); dropping the rest";
      break;
    }
    if (line.size() > kMaxRestartLine) {
      XB_LOG_EVERY_N(Warning, "swm:restart-line-cap", 16)
          << "swm: restart record of " << line.size() << " bytes skipped";
      continue;
    }
    std::string trimmed = xbase::TrimWhitespace(line);
    if (trimmed.empty()) {
      continue;
    }
    if (xbase::StartsWith(trimmed, "policy ")) {
      // Layout-policy adoption line; last one wins.  Validated against the
      // registered policy names by the consumer, not here.
      table.policy_name_ = xbase::TrimWhitespace(trimmed.substr(7));
      continue;
    }
    std::optional<SwmHintsRecord> record = SwmHintsRecord::Parse(trimmed);
    if (record.has_value()) {
      table.Add(std::move(*record));
    } else {
      // A storm of garbage records repeats this line; log every Nth.
      XB_LOG_EVERY_N(Warning, "swm:restart-malformed", 16)
          << "swm: malformed restart record skipped: "
          << trimmed.substr(0, 128);
    }
  }
  return table;
}

std::string RestartTable::ToPropertyText() const {
  std::string out;
  for (const SwmHintsRecord& record : records_) {
    out += record.Encode();
    out += '\n';
  }
  if (policy_name_.has_value()) {
    out += "policy " + *policy_name_ + '\n';
  }
  return out;
}

bool AppendSwmHints(xlib::Display* display, int screen, const SwmHintsRecord& record) {
  return display->AppendStringProperty(display->RootWindow(screen),
                                       xproto::kAtomSwmRestartInfo, record.Encode() + "\n");
}

bool AppendSwmPolicy(xlib::Display* display, int screen, const std::string& name) {
  return display->AppendStringProperty(display->RootWindow(screen),
                                       xproto::kAtomSwmRestartInfo,
                                       "policy " + name + "\n");
}

RestartTable TakeRestartInfo(xlib::Display* display, int screen) {
  xproto::WindowId root = display->RootWindow(screen);
  std::optional<std::string> text =
      display->GetStringProperty(root, xproto::kAtomSwmRestartInfo);
  if (!text.has_value()) {
    return RestartTable();
  }
  display->DeleteProperty(root, display->InternAtom(xproto::kAtomSwmRestartInfo));
  return RestartTable::FromPropertyText(*text);
}

std::string ExpandRemoteStartup(const std::string& templ, const std::string& host,
                                const std::string& command) {
  std::string out;
  for (size_t i = 0; i < templ.size(); ++i) {
    if (templ[i] == '%' && i + 1 < templ.size()) {
      char c = templ[++i];
      if (c == 'h') {
        out += host;
      } else if (c == 'c') {
        out += command;
      } else if (c == '%') {
        out += '%';
      } else {
        out += '%';
        out += c;
      }
    } else {
      out += templ[i];
    }
  }
  return out;
}

std::string GeneratePlacesFile(const std::vector<SwmHintsRecord>& records,
                               const std::string& remote_startup_template) {
  std::ostringstream os;
  os << "#!/bin/sh\n";
  os << "# Generated by swm f.places -- suitable as an .xinitrc replacement.\n";
  for (const SwmHintsRecord& record : records) {
    os << record.Encode() << "\n";
    if (!record.machine.empty() && record.machine != "localhost") {
      std::string templ = remote_startup_template.empty() ? "rsh %h %c"
                                                          : remote_startup_template;
      os << ExpandRemoteStartup(templ, record.machine, record.command) << " &\n";
    } else {
      os << record.command << " &\n";
    }
  }
  os << "exec swm\n";
  return os.str();
}

std::vector<SwmHintsRecord> ParsePlacesFile(const std::string& text) {
  std::vector<SwmHintsRecord> records;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    std::string trimmed = xbase::TrimWhitespace(line);
    if (xbase::StartsWith(trimmed, "swmhints ")) {
      std::optional<SwmHintsRecord> record = SwmHintsRecord::Parse(trimmed);
      if (record.has_value()) {
        records.push_back(std::move(*record));
      }
    }
  }
  return records;
}

}  // namespace swm
