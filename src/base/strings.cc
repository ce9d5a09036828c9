#include "src/base/strings.h"

#include <cctype>

namespace xbase {

std::string TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string Capitalized(std::string_view s) {
  std::string out(s);
  if (!out.empty()) {
    out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  }
  return out;
}

std::optional<int> ParseInt(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  bool negative = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    negative = s[0] == '-';
    i = 1;
    if (s.size() == 1) {
      return std::nullopt;
    }
  }
  long value = 0;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
      return std::nullopt;
    }
    value = value * 10 + (s[i] - '0');
    if (value > 2147483647L) {
      return std::nullopt;
    }
  }
  return negative ? -static_cast<int>(value) : static_cast<int>(value);
}

std::optional<uint64_t> ParseHex(std::string_view s) {
  if (StartsWith(s, "0x") || StartsWith(s, "0X")) {
    s.remove_prefix(2);
  }
  if (s.empty() || s.size() > 16) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = value * 16 + static_cast<uint64_t>(digit);
  }
  return value;
}

std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += pieces[i];
  }
  return out;
}

std::vector<std::string> ShellSplit(std::string_view s) {
  std::vector<std::string> argv;
  std::string cur;
  bool in_word = false;
  bool in_quote = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 1 < s.size()) {
      cur.push_back(s[++i]);
      in_word = true;
    } else if (c == '"') {
      in_quote = !in_quote;
      in_word = true;  // "" is a valid empty argument.
    } else if (!in_quote && std::isspace(static_cast<unsigned char>(c))) {
      if (in_word) {
        argv.push_back(cur);
        cur.clear();
        in_word = false;
      }
    } else {
      cur.push_back(c);
      in_word = true;
    }
  }
  if (in_word) {
    argv.push_back(cur);
  }
  return argv;
}

std::string ShellJoin(const std::vector<std::string>& argv) {
  std::vector<std::string> quoted;
  quoted.reserve(argv.size());
  for (const std::string& arg : argv) {
    bool needs_quote = arg.empty();
    std::string escaped;
    for (char c : arg) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        needs_quote = true;
      }
      if (c == '"' || c == '\\') {
        escaped.push_back('\\');
      }
      escaped.push_back(c);
    }
    quoted.push_back(needs_quote ? "\"" + escaped + "\"" : escaped);
  }
  return JoinStrings(quoted, " ");
}

}  // namespace xbase
