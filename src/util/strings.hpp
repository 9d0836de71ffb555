#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cref::util {

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Returns true if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Splits `s` on every occurrence of `sep` (no collapsing of empty fields).
std::vector<std::string> split(std::string_view s, char sep);

/// Returns the whole contents of the file at `path`; throws
/// std::runtime_error("cannot open <path>") when it cannot be opened.
std::string read_file(const std::string& path);

/// Formats a double with `digits` significant decimal places, trimming
/// trailing zeros ("3.50" -> "3.5", "4.00" -> "4").
std::string format_double(double value, int digits = 2);

}  // namespace cref::util
