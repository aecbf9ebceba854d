#ifndef PINSQL_UTIL_STRINGS_H_
#define PINSQL_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pinsql {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string AsciiToLower(std::string_view s);
/// ASCII upper-casing.
std::string AsciiToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// FNV-1a 64-bit hash; used for SQL template ids.
uint64_t Fnv1a64(std::string_view s);

/// Renders a 64-bit hash as a fixed-width upper-case hex string, the way
/// SQL ids appear in query logs (e.g. "A84F...").
std::string HashToHex(uint64_t hash);

}  // namespace pinsql

#endif  // PINSQL_UTIL_STRINGS_H_
