#include "common/parse.h"

#include <charconv>
#include <cmath>

namespace tnmine {

namespace {

/// Shared body for the integer parsers: std::from_chars with a
/// full-consumption check. from_chars already rejects leading whitespace,
/// leading '+', and a '-' on unsigned targets, and reports overflow via
/// std::errc::result_out_of_range, which is exactly the strict contract.
template <typename Int>
bool ParseIntegral(std::string_view text, Int* out) {
  if (text.empty()) return false;
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseInt64(std::string_view text, std::int64_t* out) {
  return ParseIntegral(text, out);
}

bool ParseInt32(std::string_view text, std::int32_t* out) {
  return ParseIntegral(text, out);
}

bool ParseUint64(std::string_view text, std::uint64_t* out) {
  return ParseIntegral(text, out);
}

bool ParseUint32(std::string_view text, std::uint32_t* out) {
  return ParseIntegral(text, out);
}

bool ParseSize(std::string_view text, std::size_t* out) {
  std::uint64_t value = 0;
  if (!ParseUint64(text, &value)) return false;
  if (value > static_cast<std::uint64_t>(SIZE_MAX)) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  // from_chars rejects leading whitespace and '+'; it accepts fixed and
  // scientific notation plus "inf"/"nan", always with '.' as the decimal
  // point regardless of the global locale.
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(
      text.data(), text.data() + text.size(), value,
      std::chars_format::general);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  *out = value;
  return true;
}

bool ParseFiniteDouble(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseDouble(text, &value)) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string ParseError::ToString() const {
  if (line == 0) return message;
  std::string out = "line " + std::to_string(line);
  if (column != 0) out += ", column " + std::to_string(column);
  out += ": " + message;
  return out;
}

ParseError ParseError::At(std::size_t line, std::size_t column,
                          std::string message) {
  ParseError e;
  e.line = line;
  e.column = column;
  e.message = std::move(message);
  return e;
}

std::vector<LineToken> TokenizeLine(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<LineToken> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    tokens.push_back(LineToken{line.substr(start, i - start), start + 1});
  }
  return tokens;
}

}  // namespace tnmine
