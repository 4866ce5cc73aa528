// String helpers shared by the HTTP layer and the DSL lexer.
#ifndef SRC_BASE_STRING_UTIL_H_
#define SRC_BASE_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dbase {

// Splits on a single character; keeps empty fields.
std::vector<std::string_view> SplitString(std::string_view input, char sep);
// Splits on a separator string; keeps empty fields.
std::vector<std::string_view> SplitString(std::string_view input, std::string_view sep);

std::string_view TrimWhitespace(std::string_view s);

std::string ToLowerAscii(std::string_view s);
std::string ToUpperAscii(std::string_view s);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Parses a non-negative decimal integer; returns false on any non-digit or
// overflow (used by the HTTP sanitizer: never trust Content-Length).
bool ParseUint64(std::string_view s, uint64_t* out);
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep);

// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// "1.23 ms" / "456 us" style human-readable durations (bench output).
std::string FormatMicros(double us);
// "12.3 MB" style sizes.
std::string FormatBytes(double bytes);

}  // namespace dbase

#endif  // SRC_BASE_STRING_UTIL_H_
