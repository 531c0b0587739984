#ifndef SAMA_COMMON_STRING_UTIL_H_
#define SAMA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace sama {

// Removes ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string_view> SplitString(std::string_view s, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// ASCII-lowercases `s`.
std::string ToLowerAscii(std::string_view s);

// Escapes `s` for use inside a JSON string literal: quote, backslash,
// \n, \t and \r get their short escapes, other control bytes become
// \u00XX, and every other byte (UTF-8 included) passes through.
std::string JsonEscape(std::string_view s);

// Appends `v` to `out` as a JSON number ("%.6g"), or as null when `v` is
// NaN or infinite, which JSON cannot represent.
void AppendJsonNumber(std::string* out, double v);

// Formats a byte count as "12.3 MB" style text (for Table 1 reporting).
std::string HumanBytes(uint64_t bytes);

// Formats a duration in milliseconds as "1 sec" / "4 min" style text.
std::string HumanMillis(double millis);

}  // namespace sama

#endif  // SAMA_COMMON_STRING_UTIL_H_
