// Small string helpers shared across modules (no locale dependence).
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xbase {

std::string TrimWhitespace(std::string_view s);

// Splits on a single character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

// Splits on any run of whitespace; empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

std::string ToLowerAscii(std::string_view s);

// The Xrm class form of a name component: first character upper-cased
// ("screen0" -> "Screen0").
std::string Capitalized(std::string_view s);

// Strict decimal integer parse (optional leading '-'); nullopt on junk.
std::optional<int> ParseInt(std::string_view s);

// Strict hexadecimal parse accepting an optional "0x" prefix.
std::optional<uint64_t> ParseHex(std::string_view s);

std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view sep);

// Splits a command line into argv honoring double quotes and backslash
// escapes (the subset needed to round-trip WM_COMMAND strings).
std::vector<std::string> ShellSplit(std::string_view s);

// Inverse of ShellSplit: quotes arguments containing whitespace or quotes.
std::string ShellJoin(const std::vector<std::string>& argv);

}  // namespace xbase

#endif  // SRC_BASE_STRINGS_H_
