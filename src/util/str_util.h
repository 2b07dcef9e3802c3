// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace relopt {

/// Lower-cases ASCII characters of `s`.
std::string ToLower(std::string_view s);
/// Upper-cases ASCII characters of `s`.
std::string ToUpper(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// True if `s` starts with / ends with `prefix`/`suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable double: trims trailing zeros ("3.5", "2", "0.001").
std::string FormatDouble(double v);

/// Escapes a string for display inside single quotes (doubling quotes).
std::string EscapeSqlString(std::string_view s);

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

}  // namespace relopt
