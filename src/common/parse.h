#ifndef TNMINE_COMMON_PARSE_H_
#define TNMINE_COMMON_PARSE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tnmine {

/// Strict, locale-independent text-to-number conversion.
///
/// Every reader in tnmine (CSV, native/SUBDUE/FSG graph formats, ARFF,
/// dates) funnels numeric fields through these helpers instead of
/// `operator>>`, `sscanf`, or `strtod`. The contract is uniform:
///
///   - The ENTIRE input must be consumed. "12x", "1 2", and "" all fail.
///   - No leading or trailing whitespace is accepted.
///   - No leading '+' is accepted; '-' only for signed targets.
///   - Overflow fails instead of wrapping or saturating. In particular a
///     negative literal never turns into a huge unsigned value.
///   - Results are locale-independent ('.' is always the decimal point).
///
/// All functions return false without touching `*out` on failure.
bool ParseInt64(std::string_view text, std::int64_t* out);
bool ParseInt32(std::string_view text, std::int32_t* out);
bool ParseUint64(std::string_view text, std::uint64_t* out);
bool ParseUint32(std::string_view text, std::uint32_t* out);
/// Parses a non-negative size. Rejects '-' outright, so "-1" can never
/// wrap to SIZE_MAX.
bool ParseSize(std::string_view text, std::size_t* out);
/// Parses a double (fixed or scientific notation, "inf"/"nan" accepted as
/// by std::from_chars). Full consumption, locale-independent.
bool ParseDouble(std::string_view text, double* out);
/// Like ParseDouble but additionally rejects non-finite results.
bool ParseFiniteDouble(std::string_view text, double* out);

/// Uniform parse-failure report carried by every tnmine reader.
///
/// `line` and `column` are 1-based positions in the input text; 0 means
/// "not applicable" (e.g. a file-level error). It is the one error type of
/// the graph and ARFF readers (DESIGN.md, "Positional errors").
struct ParseError {
  std::size_t line = 0;
  std::size_t column = 0;
  std::string message;

  /// "line 3, column 7: malformed vertex line" (or just the message when
  /// no position is known).
  std::string ToString() const;

  /// Convenience factory.
  static ParseError At(std::size_t line, std::size_t column,
                       std::string message);
};

/// A whitespace-separated token of a line, with the 1-based column where
/// it starts (for ParseError reporting).
struct LineToken {
  std::string_view text;
  std::size_t column = 0;
};

/// Splits `line` on spaces/tabs into tokens with column positions. A
/// trailing '\r' (CRLF input) is dropped first.
std::vector<LineToken> TokenizeLine(std::string_view line);

/// Iterates the lines of `text` (split on '\n', no newline translation
/// beyond dropping a trailing '\r' per line) and calls
/// `fn(line_number, line)` with 1-based line numbers. `fn` returns false
/// to stop early; ForEachLine then returns false.
template <typename Fn>
bool ForEachLine(std::string_view text, Fn&& fn) {
  std::size_t line_number = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    const std::size_t next =
        (end == std::string_view::npos) ? text.size() : end + 1;
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_number;
    if (!fn(line_number, line)) return false;
    begin = next;
  }
  return true;
}

}  // namespace tnmine

#endif  // TNMINE_COMMON_PARSE_H_
