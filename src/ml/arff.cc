#include "ml/arff.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/parse.h"
#include "graph/graph_io.h"

namespace tnmine::ml {

namespace {

/// Quotes a name/value when it contains ARFF-significant characters.
/// Inside quotes both the quote and the backslash are escaped — otherwise
/// a value ending in '\' would serialize as '...\'' and the trailing \'
/// would read back as an escaped quote.
std::string Quote(const std::string& s) {
  const bool needs = s.empty() ||
                     s.find_first_of(" ,{}%'\"\t") != std::string::npos;
  if (!needs) return s;
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "\\'";
    else if (c == '\\') out += "\\\\";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

std::string TrimCopy(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Splits a comma-separated list, honoring single quotes. Whitespace
/// around unquoted items is trimmed; the content of quoted items is
/// preserved verbatim (including leading/trailing spaces), which is what
/// makes Quote() round-trip. After a closing quote only whitespace may
/// precede the next comma.
bool SplitList(const std::string& text, std::vector<std::string>* out) {
  out->clear();
  std::size_t i = 0;
  const std::size_t n = text.size();
  for (;;) {
    while (i < n && IsSpace(text[i])) ++i;
    std::string item;
    if (i < n && text[i] == '\'') {
      ++i;
      bool closed = false;
      while (i < n) {
        const char c = text[i];
        if (c == '\\' && i + 1 < n &&
            (text[i + 1] == '\'' || text[i + 1] == '\\')) {
          item.push_back(text[i + 1]);
          i += 2;
        } else if (c == '\'') {
          ++i;
          closed = true;
          break;
        } else {
          item.push_back(c);
          ++i;
        }
      }
      if (!closed) return false;  // unterminated quote
      while (i < n && IsSpace(text[i])) ++i;
      if (i < n && text[i] != ',') return false;  // junk after closing quote
    } else {
      const std::size_t start = i;
      while (i < n && text[i] != ',') {
        if (text[i] == '\'') return false;  // quote inside unquoted item
        ++i;
      }
      std::size_t end = i;
      while (end > start && IsSpace(text[end - 1])) --end;
      item = text.substr(start, end - start);
    }
    out->push_back(std::move(item));
    if (i >= n) break;
    ++i;  // skip the comma
  }
  return true;
}

/// Shortest representation that parses back to exactly the same double
/// (std::to_chars), so numeric cells survive Write -> Read unchanged.
void AppendDouble(std::ostringstream& out, double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out << std::string_view(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

std::string WriteArff(const AttributeTable& table,
                      const std::string& relation_name) {
  std::ostringstream out;
  out << "@relation " << Quote(relation_name) << "\n\n";
  for (const Attribute& attr : table.attributes()) {
    out << "@attribute " << Quote(attr.name) << " ";
    if (attr.kind == AttrKind::kNumeric) {
      out << "numeric\n";
    } else {
      out << "{";
      for (std::size_t v = 0; v < attr.values.size(); ++v) {
        if (v > 0) out << ",";
        out << Quote(attr.values[v]);
      }
      out << "}\n";
    }
  }
  out << "\n@data\n";
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (int a = 0; a < table.num_attributes(); ++a) {
      if (a > 0) out << ",";
      const Attribute& attr = table.attribute(a);
      if (attr.kind == AttrKind::kNumeric) {
        AppendDouble(out, table.value(r, a));
      } else {
        out << Quote(table.NominalValue(r, a));
      }
    }
    out << "\n";
  }
  return out.str();
}

bool ReadArff(const std::string& text, AttributeTable* table,
              ParseError* error) {
  *table = AttributeTable();
  std::istringstream in(text);
  std::string line;
  bool in_data = false;
  std::size_t line_number = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = ParseError::At(line_number, 0, message);
    return false;
  };
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = TrimCopy(line);
    if (trimmed.empty() || trimmed[0] == '%') continue;
    if (!in_data) {
      std::string lower = trimmed;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lower.rfind("@relation", 0) == 0) continue;
      if (lower.rfind("@data", 0) == 0) {
        in_data = true;
        continue;
      }
      if (lower.rfind("@attribute", 0) == 0) {
        std::string rest = TrimCopy(trimmed.substr(10));
        // Name: quoted or up to whitespace.
        std::string name;
        if (!rest.empty() && rest[0] == '\'') {
          std::size_t i = 1;
          bool closed = false;
          while (i < rest.size()) {
            if (rest[i] == '\\' && i + 1 < rest.size() &&
                (rest[i + 1] == '\'' || rest[i + 1] == '\\')) {
              name.push_back(rest[i + 1]);
              i += 2;
            } else if (rest[i] == '\'') {
              ++i;
              closed = true;
              break;
            } else {
              name.push_back(rest[i]);
              ++i;
            }
          }
          if (!closed) return fail("unterminated attribute name");
          rest = TrimCopy(rest.substr(i));
        } else {
          const std::size_t space = rest.find_first_of(" \t");
          if (space == std::string::npos) {
            return fail("attribute missing type");
          }
          name = rest.substr(0, space);
          rest = TrimCopy(rest.substr(space));
        }
        std::string lower_rest = rest;
        std::transform(lower_rest.begin(), lower_rest.end(),
                       lower_rest.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (lower_rest.rfind("numeric", 0) == 0 ||
            lower_rest.rfind("real", 0) == 0 ||
            lower_rest.rfind("integer", 0) == 0) {
          table->AddNumericAttribute(name);
        } else if (!rest.empty() && rest[0] == '{' &&
                   rest.back() == '}') {
          std::vector<std::string> values;
          if (!SplitList(rest.substr(1, rest.size() - 2), &values)) {
            return fail("malformed nominal domain");
          }
          table->AddNominalAttribute(name, std::move(values));
        } else {
          return fail("unsupported attribute type: " + rest);
        }
        continue;
      }
      return fail("unexpected header line");
    }
    // Data row.
    std::vector<std::string> cells;
    if (!SplitList(trimmed, &cells)) return fail("malformed data row");
    if (static_cast<int>(cells.size()) != table->num_attributes()) {
      return fail("wrong cell count");
    }
    std::vector<double> row(cells.size());
    for (int a = 0; a < table->num_attributes(); ++a) {
      const Attribute& attr = table->attribute(a);
      const std::string& cell = cells[static_cast<std::size_t>(a)];
      if (attr.kind == AttrKind::kNumeric) {
        if (!ParseDouble(cell, &row[static_cast<std::size_t>(a)])) {
          return fail("bad numeric cell '" + cell + "'");
        }
      } else {
        const auto it =
            std::find(attr.values.begin(), attr.values.end(), cell);
        if (it == attr.values.end()) {
          return fail("unknown nominal value '" + cell + "'");
        }
        row[static_cast<std::size_t>(a)] =
            static_cast<double>(it - attr.values.begin());
      }
    }
    table->AddRow(std::move(row));
  }
  if (!in_data) return fail("missing @data section");
  return true;
}

bool SaveArff(const AttributeTable& table, const std::string& relation_name,
              const std::string& path, std::string* error) {
  if (!graph::WriteTextFile(path, WriteArff(table, relation_name))) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  return true;
}

bool LoadArff(const std::string& path, AttributeTable* table,
              std::string* error) {
  std::string text;
  if (!graph::ReadTextFile(path, &text)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  ParseError parse_error;
  if (ReadArff(text, table, &parse_error)) return true;
  if (error != nullptr) *error = parse_error.ToString();
  return false;
}

}  // namespace tnmine::ml
