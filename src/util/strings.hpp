// Small string helpers shared across the library (parsing, table printing).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lithogan::util {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Lowercases ASCII letters.
std::string to_lower(std::string_view text);

/// printf-style float formatting with fixed decimals, e.g. format_fixed(1.237, 2) == "1.24".
std::string format_fixed(double value, int decimals);

/// Pads `text` with spaces on the right to at least `width` characters.
std::string pad_right(std::string_view text, std::size_t width);

/// Pads `text` with spaces on the left to at least `width` characters.
std::string pad_left(std::string_view text, std::size_t width);

}  // namespace lithogan::util
