#ifndef TNMINE_GRAPH_GRAPH_IO_H_
#define TNMINE_GRAPH_GRAPH_IO_H_

#include <functional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "graph/labeled_graph.h"

namespace tnmine::graph {

/// Serializes `g` in tnmine's native text format:
///   g <num_vertices> <num_edges>
///   v <id> <label>
///   e <src> <dst> <label>
/// Tombstoned edges are skipped; vertex ids are the dense ids of `g`.
std::string WriteNative(const LabeledGraph& g);

/// Parses the native format. All numeric fields go through the strict
/// helpers in common/parse.h: negative or overflowing counts and ids are
/// rejected (a header like "g -1 0" is an error, not a wrapped huge
/// reservation), and storage reservations are capped against the input
/// size. Returns false and fills `error` (line/column/message) on
/// malformed input.
bool ReadNative(const std::string& text, LabeledGraph* g, ParseError* error);

/// Serializes in the SUBDUE 5.x input style used by Cook & Holder's tool:
///   v <1-based-id> <label>
///   d <1-based-src> <1-based-dst> <label>    (directed edge)
std::string WriteSubdueFormat(const LabeledGraph& g);

/// Parses the SUBDUE input style (the inverse of WriteSubdueFormat; `d`,
/// `e`, and `u` edge directives are all accepted as directed edges).
/// Vertex ids must be 1-based and dense; endpoints must reference declared
/// vertices. Same strict-number contract as ReadNative.
bool ReadSubdueFormat(const std::string& text, LabeledGraph* g,
                      ParseError* error);

/// Serializes a transaction set in the FSG input style used by Kuramochi &
/// Karypis's tool (one `t` block per graph, `u` lines emitted for edges —
/// our edges are directed, so we emit `d` lines instead to preserve
/// direction):
///   t # <index>
///   v <0-based-id> <label>
///   d <src> <dst> <label>
std::string WriteFsgFormat(const std::vector<LabeledGraph>& transactions);

/// Parses a transaction set in the FSG input style (the inverse of
/// WriteFsgFormat; `d`, `u`, and `e` edge directives are all accepted and
/// read as directed src -> dst edges). Same strict-number contract as
/// ReadNative. Returns false and fills `error` on malformed input.
bool ReadFsgFormat(const std::string& text,
                   std::vector<LabeledGraph>* transactions,
                   ParseError* error);
/// The same, with the error formatted by ParseError::ToString(). The one
/// string overload left among the readers: perfbench's kk_candidates
/// workload calls it, and perfbench/ changes only with the benchmark.
bool ReadFsgFormat(const std::string& text,
                   std::vector<LabeledGraph>* transactions,
                   std::string* error);

/// Streams an FSG-format transaction file through `callback`, one
/// completed transaction at a time, reading the file in fixed-size
/// chunks: peak memory is one transaction plus the chunk buffer,
/// however large the file — the entry point the shard builder uses to
/// convert datasets bigger than RAM (DESIGN.md §16). Same grammar and
/// strict-number contract as ReadFsgFormat. The callback may return
/// false to stop early; that is a successful return, not an error.
/// Returns false (with `error` filled) on I/O failure or malformed
/// input.
bool StreamFsgTransactions(
    const std::string& path,
    const std::function<bool(LabeledGraph&&)>& callback, std::string* error);

/// Writes `text` to `path`. Returns false on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& text);

/// Reads the whole of `path` into `text`. Returns false on I/O failure.
bool ReadTextFile(const std::string& path, std::string* text);

}  // namespace tnmine::graph

#endif  // TNMINE_GRAPH_GRAPH_IO_H_
