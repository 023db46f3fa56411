#include "graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/failpoint.h"
#include "common/telemetry.h"

namespace tnmine::graph {

namespace {

/// Parses a vertex/edge id or count token as uint32 (the width of
/// VertexId/EdgeId). Rejects '-', '+', overflow, and partial consumption,
/// so "-1" can never wrap into a huge id.
bool ParseId(std::string_view token, std::uint32_t* out) {
  return ParseUint32(token, out);
}

bool ParseLabel(std::string_view token, Label* out) {
  return ParseInt32(token, out);
}

/// Caps a header-declared element count against what the remaining input
/// could plausibly hold, so a hostile header ("g 4000000000 0") cannot
/// force a multi-gigabyte Reserve before the count mismatch is detected.
/// `min_bytes_per_element` is the smallest possible serialized line for
/// one element ("v 0 0\n" = 6 bytes, "e 0 0 0\n" = 8 bytes).
std::size_t CapReserve(std::size_t declared, std::size_t input_bytes,
                       std::size_t min_bytes_per_element) {
  return std::min(declared, input_bytes / min_bytes_per_element + 1);
}

}  // namespace

std::string WriteNative(const LabeledGraph& g) {
  std::ostringstream out;
  out << "g " << g.num_vertices() << " " << g.num_edges() << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "v " << v << " " << g.vertex_label(v) << "\n";
  }
  g.ForEachEdge([&](EdgeId e) {
    const Edge& edge = g.edge(e);
    out << "e " << edge.src << " " << edge.dst << " " << edge.label << "\n";
  });
  return out.str();
}

bool ReadNative(const std::string& text, LabeledGraph* g,
                ParseError* error) {
  *g = LabeledGraph();
  TNMINE_COUNTER_ADD("graph_io/bytes_parsed", text.size());
  std::size_t expect_vertices = 0, expect_edges = 0;
  bool have_header = false;
  std::size_t seen_vertices = 0, seen_edges = 0;
  ParseError err;
  const bool scanned = ForEachLine(text, [&](std::size_t line_number,
                                             std::string_view line) {
    const std::vector<LineToken> tokens = TokenizeLine(line);
    if (tokens.empty()) return true;  // blank line
    auto fail = [&](std::size_t column, std::string message) {
      err = ParseError::At(line_number, column, std::move(message));
      return false;
    };
    const std::string_view directive = tokens[0].text;
    if (directive[0] == '#') return true;  // comment line
    if (directive == "g") {
      if (have_header) return fail(tokens[0].column, "duplicate header");
      if (tokens.size() != 3) {
        return fail(tokens[0].column,
                    "header must be 'g <vertices> <edges>'");
      }
      std::uint32_t nv = 0, ne = 0;
      if (!ParseId(tokens[1].text, &nv)) {
        return fail(tokens[1].column, "bad vertex count '" +
                                          std::string(tokens[1].text) + "'");
      }
      if (!ParseId(tokens[2].text, &ne)) {
        return fail(tokens[2].column,
                    "bad edge count '" + std::string(tokens[2].text) + "'");
      }
      expect_vertices = nv;
      expect_edges = ne;
      have_header = true;
      g->Reserve(CapReserve(expect_vertices, text.size(), 6),
                 CapReserve(expect_edges, text.size(), 8));
    } else if (directive == "v") {
      if (tokens.size() != 3) {
        return fail(tokens[0].column, "vertex line must be 'v <id> <label>'");
      }
      std::uint32_t id = 0;
      Label label = 0;
      if (!ParseId(tokens[1].text, &id)) {
        return fail(tokens[1].column,
                    "bad vertex id '" + std::string(tokens[1].text) + "'");
      }
      if (!ParseLabel(tokens[2].text, &label)) {
        return fail(tokens[2].column,
                    "bad vertex label '" + std::string(tokens[2].text) + "'");
      }
      if (id != seen_vertices) {
        return fail(tokens[1].column, "vertex ids must be dense");
      }
      g->AddVertex(label);
      ++seen_vertices;
    } else if (directive == "e") {
      if (tokens.size() != 4) {
        return fail(tokens[0].column,
                    "edge line must be 'e <src> <dst> <label>'");
      }
      std::uint32_t src = 0, dst = 0;
      Label label = 0;
      if (!ParseId(tokens[1].text, &src) || !ParseId(tokens[2].text, &dst)) {
        return fail(tokens[1].column, "bad edge endpoint");
      }
      if (!ParseLabel(tokens[3].text, &label)) {
        return fail(tokens[3].column,
                    "bad edge label '" + std::string(tokens[3].text) + "'");
      }
      if (src >= seen_vertices || dst >= seen_vertices) {
        return fail(tokens[1].column, "edge endpoint out of range");
      }
      g->AddEdge(static_cast<VertexId>(src), static_cast<VertexId>(dst),
                 label);
      ++seen_edges;
    } else {
      return fail(tokens[0].column,
                  "unknown directive: " + std::string(directive));
    }
    return true;
  });
  if (!scanned) {
    TNMINE_COUNTER_ADD("graph_io/parse_errors", 1);
    if (error != nullptr) *error = err;
    return false;
  }
  auto fail_global = [&](const std::string& message) {
    TNMINE_COUNTER_ADD("graph_io/parse_errors", 1);
    if (error != nullptr) *error = ParseError::At(0, 0, message);
    return false;
  };
  if (!have_header) return fail_global("missing header");
  if (seen_vertices != expect_vertices) {
    return fail_global("vertex count mismatch");
  }
  if (seen_edges != expect_edges) return fail_global("edge count mismatch");
  TNMINE_COUNTER_ADD("graph_io/records_parsed", seen_vertices + seen_edges);
  return true;
}

std::string WriteSubdueFormat(const LabeledGraph& g) {
  std::ostringstream out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "v " << (v + 1) << " " << g.vertex_label(v) << "\n";
  }
  g.ForEachEdge([&](EdgeId e) {
    const Edge& edge = g.edge(e);
    out << "d " << (edge.src + 1) << " " << (edge.dst + 1) << " "
        << edge.label << "\n";
  });
  return out.str();
}

bool ReadSubdueFormat(const std::string& text, LabeledGraph* g,
                      ParseError* error) {
  *g = LabeledGraph();
  TNMINE_COUNTER_ADD("graph_io/bytes_parsed", text.size());
  std::size_t seen_vertices = 0;
  std::size_t seen_edges = 0;
  ParseError err;
  const bool scanned = ForEachLine(text, [&](std::size_t line_number,
                                             std::string_view line) {
    const std::vector<LineToken> tokens = TokenizeLine(line);
    if (tokens.empty()) return true;
    auto fail = [&](std::size_t column, std::string message) {
      err = ParseError::At(line_number, column, std::move(message));
      return false;
    };
    const std::string_view directive = tokens[0].text;
    if (directive[0] == '#' || directive[0] == '%') return true;  // comment
    if (directive == "v") {
      if (tokens.size() != 3) {
        return fail(tokens[0].column, "vertex line must be 'v <id> <label>'");
      }
      std::uint32_t id = 0;
      Label label = 0;
      if (!ParseId(tokens[1].text, &id)) {
        return fail(tokens[1].column,
                    "bad vertex id '" + std::string(tokens[1].text) + "'");
      }
      if (!ParseLabel(tokens[2].text, &label)) {
        return fail(tokens[2].column,
                    "bad vertex label '" + std::string(tokens[2].text) + "'");
      }
      if (id != seen_vertices + 1) {
        return fail(tokens[1].column, "vertex ids must be 1-based and dense");
      }
      g->AddVertex(label);
      ++seen_vertices;
    } else if (directive == "d" || directive == "e" || directive == "u") {
      if (tokens.size() != 4) {
        return fail(tokens[0].column,
                    "edge line must be 'd <src> <dst> <label>'");
      }
      std::uint32_t src = 0, dst = 0;
      Label label = 0;
      if (!ParseId(tokens[1].text, &src) || !ParseId(tokens[2].text, &dst)) {
        return fail(tokens[1].column, "bad edge endpoint");
      }
      if (!ParseLabel(tokens[3].text, &label)) {
        return fail(tokens[3].column,
                    "bad edge label '" + std::string(tokens[3].text) + "'");
      }
      if (src < 1 || dst < 1 || src > seen_vertices ||
          dst > seen_vertices) {
        return fail(tokens[1].column, "edge endpoint out of range");
      }
      g->AddEdge(static_cast<VertexId>(src - 1),
                 static_cast<VertexId>(dst - 1), label);
      ++seen_edges;
    } else {
      return fail(tokens[0].column,
                  "unknown directive: " + std::string(directive));
    }
    return true;
  });
  if (!scanned) {
    TNMINE_COUNTER_ADD("graph_io/parse_errors", 1);
    if (error != nullptr) *error = err;
    return false;
  }
  TNMINE_COUNTER_ADD("graph_io/records_parsed", seen_vertices + seen_edges);
  return true;
}

std::string WriteFsgFormat(const std::vector<LabeledGraph>& transactions) {
  std::ostringstream out;
  for (std::size_t t = 0; t < transactions.size(); ++t) {
    const LabeledGraph& g = transactions[t];
    out << "t # " << t << "\n";
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      out << "v " << v << " " << g.vertex_label(v) << "\n";
    }
    g.ForEachEdge([&](EdgeId e) {
      const Edge& edge = g.edge(e);
      out << "d " << edge.src << " " << edge.dst << " " << edge.label << "\n";
    });
  }
  return out.str();
}

namespace {

/// Stateful per-line parser for the FSG transaction grammar, shared by
/// the slurping and streaming readers. Lines go in through
/// ConsumeLine(); each completed transaction goes out through the sink
/// (a transaction completes when the next `t` header arrives, or at
/// Finish()). ConsumeLine returns false to stop the scan — either a
/// parse error (failed() is set) or the sink declining more input.
class FsgLineParser {
 public:
  explicit FsgLineParser(const std::function<bool(LabeledGraph&&)>& sink)
      : sink_(sink) {}

  bool ConsumeLine(std::size_t line_number, std::string_view line) {
    const std::vector<LineToken> tokens = TokenizeLine(line);
    if (tokens.empty()) return true;
    auto fail = [&](std::size_t column, std::string message) {
      error_ = ParseError::At(line_number, column, std::move(message));
      failed_ = true;
      return false;
    };
    const std::string_view directive = tokens[0].text;
    if (directive[0] == '#') return true;  // comment line
    if (directive == "t") {
      std::uint64_t index = 0;
      if (tokens.size() != 3 || tokens[1].text != "#" ||
          !ParseUint64(tokens[2].text, &index)) {
        return fail(tokens[0].column, "malformed transaction header");
      }
      if (!Flush()) return false;
      have_transaction_ = true;
    } else if (directive == "v") {
      if (!have_transaction_) {
        return fail(tokens[0].column, "vertex before transaction");
      }
      if (tokens.size() != 3) {
        return fail(tokens[0].column, "vertex line must be 'v <id> <label>'");
      }
      std::uint32_t id = 0;
      Label label = 0;
      if (!ParseId(tokens[1].text, &id)) {
        return fail(tokens[1].column,
                    "bad vertex id '" + std::string(tokens[1].text) + "'");
      }
      if (!ParseLabel(tokens[2].text, &label)) {
        return fail(tokens[2].column,
                    "bad vertex label '" + std::string(tokens[2].text) + "'");
      }
      if (id != current_.num_vertices()) {
        return fail(tokens[1].column, "vertex ids must be dense per "
                                      "transaction");
      }
      current_.AddVertex(label);
    } else if (directive == "d" || directive == "u" || directive == "e") {
      if (!have_transaction_) {
        return fail(tokens[0].column, "edge before transaction");
      }
      if (tokens.size() != 4) {
        return fail(tokens[0].column,
                    "edge line must be 'd <src> <dst> <label>'");
      }
      std::uint32_t src = 0, dst = 0;
      Label label = 0;
      if (!ParseId(tokens[1].text, &src) || !ParseId(tokens[2].text, &dst)) {
        return fail(tokens[1].column, "bad edge endpoint");
      }
      if (!ParseLabel(tokens[3].text, &label)) {
        return fail(tokens[3].column,
                    "bad edge label '" + std::string(tokens[3].text) + "'");
      }
      if (src >= current_.num_vertices() || dst >= current_.num_vertices()) {
        return fail(tokens[1].column, "edge endpoint out of range");
      }
      current_.AddEdge(static_cast<VertexId>(src),
                       static_cast<VertexId>(dst), label);
    } else {
      return fail(tokens[0].column,
                  "unknown directive: " + std::string(directive));
    }
    ++records_;
    return true;
  }

  /// Emits the trailing transaction. False only when the sink stops.
  bool Finish() { return Flush(); }

  bool failed() const { return failed_; }
  const ParseError& error() const { return error_; }
  std::size_t records() const { return records_; }

 private:
  bool Flush() {
    if (!have_transaction_) return true;
    have_transaction_ = false;
    LabeledGraph done = std::move(current_);
    current_ = LabeledGraph();
    return sink_(std::move(done));
  }

  const std::function<bool(LabeledGraph&&)>& sink_;
  LabeledGraph current_;
  bool have_transaction_ = false;
  bool failed_ = false;
  ParseError error_;
  std::size_t records_ = 0;
};

}  // namespace

bool ReadFsgFormat(const std::string& text,
                   std::vector<LabeledGraph>* transactions,
                   ParseError* error) {
  transactions->clear();
  TNMINE_COUNTER_ADD("graph_io/bytes_parsed", text.size());
  const std::function<bool(LabeledGraph&&)> sink = [&](LabeledGraph&& g) {
    transactions->push_back(std::move(g));
    return true;
  };
  FsgLineParser parser(sink);
  const bool scanned =
      ForEachLine(text, [&](std::size_t line_number, std::string_view line) {
        return parser.ConsumeLine(line_number, line);
      });
  // The collecting sink never stops, so a false scan is always a parse
  // error.
  if (!scanned) {
    TNMINE_COUNTER_ADD("graph_io/parse_errors", 1);
    if (error != nullptr) *error = parser.error();
    return false;
  }
  parser.Finish();
  TNMINE_COUNTER_ADD("graph_io/records_parsed", parser.records());
  return true;
}

bool ReadFsgFormat(const std::string& text,
                   std::vector<LabeledGraph>* transactions,
                   std::string* error) {
  ParseError err;
  if (ReadFsgFormat(text, transactions, &err)) return true;
  if (error != nullptr) *error = err.ToString();
  return false;
}

bool StreamFsgTransactions(
    const std::string& path,
    const std::function<bool(LabeledGraph&&)>& callback,
    std::string* error) {
  if (TNMINE_FAILPOINT("graph_io/read")) {
    if (error != nullptr) *error = "injected read failure";
    return false;
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  FsgLineParser parser(callback);
  // Fixed-size chunks with a carry buffer for the line straddling a
  // chunk boundary — the resident footprint is independent of the file
  // size, unlike the slurping ReadTextFile path.
  std::string carry;
  char buf[1 << 16];
  std::size_t line_number = 0;
  std::uint64_t bytes = 0;
  bool stopped = false;
  std::size_t n = 0;
  while (!stopped && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes += n;
    const std::string_view chunk(buf, n);
    std::size_t begin = 0;
    while (!stopped) {
      const std::size_t nl = chunk.find('\n', begin);
      if (nl == std::string_view::npos) break;
      std::string_view line;
      if (carry.empty()) {
        line = chunk.substr(begin, nl - begin);
      } else {
        carry.append(chunk.substr(begin, nl - begin));
        line = carry;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      ++line_number;
      if (!parser.ConsumeLine(line_number, line)) stopped = true;
      carry.clear();
      begin = nl + 1;
    }
    if (!stopped) carry.append(chunk.substr(begin));
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (error != nullptr) *error = "read error on " + path;
    return false;
  }
  if (!stopped && !carry.empty()) {
    // Final line without a trailing newline.
    std::string_view line = carry;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_number;
    if (!parser.ConsumeLine(line_number, line)) stopped = true;
  }
  if (!stopped) parser.Finish();
  if (parser.failed()) {
    TNMINE_COUNTER_ADD("graph_io/parse_errors", 1);
    if (error != nullptr) *error = parser.error().ToString();
    return false;
  }
  TNMINE_COUNTER_ADD("graph_io/bytes_read", bytes);
  TNMINE_COUNTER_ADD("graph_io/records_parsed", parser.records());
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  if (TNMINE_FAILPOINT("graph_io/write")) return false;
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (ok) TNMINE_COUNTER_ADD("graph_io/bytes_written", text.size());
  return ok;
}

bool ReadTextFile(const std::string& path, std::string* text) {
  if (TNMINE_FAILPOINT("graph_io/read")) return false;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (ok) {
    TNMINE_COUNTER_ADD("graph_io/bytes_read", out.size());
    *text = std::move(out);
  }
  return ok;
}

}  // namespace tnmine::graph
