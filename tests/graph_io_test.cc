#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <string>

namespace tnmine::graph {
namespace {

LabeledGraph SampleGraph() {
  LabeledGraph g;
  const VertexId a = g.AddVertex(3);
  const VertexId b = g.AddVertex(4);
  const VertexId c = g.AddVertex(3);
  g.AddEdge(a, b, 1);
  g.AddEdge(b, c, 2);
  g.AddEdge(c, a, 1);
  return g;
}

TEST(GraphIoTest, NativeRoundTrip) {
  const LabeledGraph g = SampleGraph();
  const std::string text = WriteNative(g);
  LabeledGraph back;
  ParseError error;
  ASSERT_TRUE(ReadNative(text, &back, &error)) << error.ToString();
  EXPECT_TRUE(g.StructurallyEqual(back));
}

TEST(GraphIoTest, NativeSkipsTombstones) {
  LabeledGraph g = SampleGraph();
  g.RemoveEdge(1);
  LabeledGraph back;
  ParseError error;
  ASSERT_TRUE(ReadNative(WriteNative(g), &back, &error)) << error.ToString();
  EXPECT_EQ(back.num_edges(), 2u);
  EXPECT_TRUE(back.IsDense());
}

TEST(GraphIoTest, RejectsCorruptHeader) {
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g 2\nv 0 1\n", &g, &error));
  EXPECT_FALSE(error.message.empty());
}

TEST(GraphIoTest, RejectsDanglingEdge) {
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g 1 1\nv 0 1\ne 0 5 2\n", &g, &error));
  EXPECT_NE(error.message.find("out of range"), std::string::npos);
}

TEST(GraphIoTest, RejectsCountMismatch) {
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g 2 1\nv 0 1\nv 1 1\n", &g, &error));
  EXPECT_NE(error.message.find("edge count"), std::string::npos);
}

TEST(GraphIoTest, RejectsUnknownDirective) {
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g 0 0\nz nonsense\n", &g, &error));
}

TEST(GraphIoTest, RejectsNegativeCounts) {
  // Regression: "g -1 0" used to wrap through the unsigned stream
  // extraction into a multi-exabyte Reserve. Negative counts and ids are
  // now parse errors.
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g -1 0\n", &g, &error));
  EXPECT_NE(error.message.find("count"), std::string::npos);
  EXPECT_FALSE(ReadNative("g 0 -3\n", &g, &error));
  EXPECT_FALSE(ReadNative("g 1 0\nv -1 5\n", &g, &error));
  EXPECT_FALSE(ReadNative("g 2 1\nv 0 1\nv 1 1\ne -1 0 2\n", &g, &error));
}

TEST(GraphIoTest, RejectsOverflowingCounts) {
  LabeledGraph g;
  ParseError error;
  // Larger than uint32 / uint64: must fail cleanly, not wrap.
  EXPECT_FALSE(ReadNative("g 99999999999999999999 0\n", &g, &error));
  EXPECT_FALSE(ReadNative("g 8589934592 0\n", &g, &error));  // 2^33
}

TEST(GraphIoTest, HugeDeclaredCountDoesNotOverReserve) {
  // A header declaring ~4e9 vertices with no body must fail on the count
  // mismatch without first attempting a ~100 GB allocation.
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g 4000000000 0\n", &g, &error));
  EXPECT_NE(error.message.find("mismatch"), std::string::npos);
}

TEST(GraphIoTest, ReportsLineAndColumn) {
  LabeledGraph g;
  ParseError err;
  ASSERT_FALSE(ReadNative("g 1 0\nv zero 5\n", &g, &err));
  EXPECT_EQ(err.line, 2u);
  EXPECT_EQ(err.column, 3u);
  EXPECT_NE(err.ToString().find("line 2"), std::string::npos);
}

TEST(GraphIoTest, RejectsTrailingTokens) {
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadNative("g 1 0 extra\nv 0 1\n", &g, &error));
  EXPECT_FALSE(ReadNative("g 1 0\nv 0 1 extra\n", &g, &error));
}

TEST(GraphIoTest, SubdueFormatUsesOneBasedIds) {
  const std::string text = WriteSubdueFormat(SampleGraph());
  EXPECT_NE(text.find("v 1 3"), std::string::npos);
  EXPECT_NE(text.find("v 2 4"), std::string::npos);
  EXPECT_NE(text.find("d 1 2 1"), std::string::npos);
}

TEST(GraphIoTest, SubdueFormatRoundTrip) {
  const LabeledGraph g = SampleGraph();
  LabeledGraph back;
  ParseError error;
  ASSERT_TRUE(ReadSubdueFormat(WriteSubdueFormat(g), &back, &error))
      << error.ToString();
  EXPECT_TRUE(g.StructurallyEqual(back));
  // And the re-serialization is byte-identical.
  EXPECT_EQ(WriteSubdueFormat(back), WriteSubdueFormat(g));
}

TEST(GraphIoTest, SubdueFormatRejectsBadIds) {
  LabeledGraph g;
  ParseError error;
  EXPECT_FALSE(ReadSubdueFormat("v 0 3\n", &g, &error));   // 0-based id
  EXPECT_FALSE(ReadSubdueFormat("v 2 3\n", &g, &error));   // sparse id
  EXPECT_FALSE(ReadSubdueFormat("v -1 3\n", &g, &error));  // negative id
  EXPECT_FALSE(ReadSubdueFormat("v 1 3\nd 1 2 0\n", &g, &error));
  EXPECT_FALSE(ReadSubdueFormat("v 1 3\nd 0 1 0\n", &g, &error));
  EXPECT_FALSE(ReadSubdueFormat("v 1 3\nx 1 1 0\n", &g, &error));
}

TEST(GraphIoTest, SubdueFormatSkipsComments) {
  LabeledGraph g;
  ParseError error;
  ASSERT_TRUE(ReadSubdueFormat("% SUBDUE comment\nv 1 3\n# hash too\n",
                               &g, &error))
      << error.ToString();
  EXPECT_EQ(g.num_vertices(), 1u);
}

TEST(GraphIoTest, FsgFormatEmitsTransactionHeaders) {
  const std::vector<LabeledGraph> txns = {SampleGraph(), SampleGraph()};
  const std::string text = WriteFsgFormat(txns);
  EXPECT_NE(text.find("t # 0"), std::string::npos);
  EXPECT_NE(text.find("t # 1"), std::string::npos);
}

TEST(GraphIoTest, FsgFormatRoundTrip) {
  LabeledGraph second;
  const VertexId x = second.AddVertex(9);
  second.AddEdge(x, x, 4);  // self-loop survives the format
  const std::vector<LabeledGraph> txns = {SampleGraph(), second};
  std::vector<LabeledGraph> back;
  std::string error;
  ASSERT_TRUE(ReadFsgFormat(WriteFsgFormat(txns), &back, &error)) << error;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].StructurallyEqual(txns[0]));
  EXPECT_TRUE(back[1].StructurallyEqual(txns[1]));
}

TEST(GraphIoTest, FsgFormatAcceptsUndirectedAlias) {
  std::vector<LabeledGraph> back;
  std::string error;
  ASSERT_TRUE(ReadFsgFormat("t # 0\nv 0 1\nv 1 2\nu 0 1 5\n", &back,
                            &error))
      << error;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].num_edges(), 1u);
}

TEST(GraphIoTest, FsgFormatRejectsGarbage) {
  std::vector<LabeledGraph> back;
  std::string error;
  EXPECT_FALSE(ReadFsgFormat("v 0 1\n", &back, &error));  // vertex first
  EXPECT_FALSE(ReadFsgFormat("t # 0\nv 5 1\n", &back, &error));  // sparse id
  EXPECT_FALSE(ReadFsgFormat("t # 0\nv 0 1\nd 0 9 1\n", &back, &error));
  EXPECT_FALSE(ReadFsgFormat("t # 0\nz nonsense\n", &back, &error));
}

TEST(GraphIoTest, TextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tnmine_graph_io.txt";
  const std::string payload = WriteNative(SampleGraph());
  ASSERT_TRUE(WriteTextFile(path, payload));
  std::string read_back;
  ASSERT_TRUE(ReadTextFile(path, &read_back));
  EXPECT_EQ(read_back, payload);
  std::remove(path.c_str());
}

TEST(GraphIoTest, ReadMissingFileFails) {
  std::string text;
  EXPECT_FALSE(ReadTextFile("/does/not/exist.graph", &text));
}

// --- StreamFsgTransactions: the bounded-memory reader behind
// `tnshard build --input` (DESIGN.md §16). It must agree transaction for
// transaction with the load-everything ReadFsgFormat.

TEST(GraphIoTest, StreamFsgMatchesReadFsgFormat) {
  std::vector<LabeledGraph> txns = {SampleGraph(), LabeledGraph(),
                                    SampleGraph()};
  const VertexId x = txns[1].AddVertex(7);
  txns[1].AddEdge(x, x, 2);
  const std::string path = ::testing::TempDir() + "/tnmine_stream_fsg.txt";
  ASSERT_TRUE(WriteTextFile(path, WriteFsgFormat(txns)));

  std::vector<LabeledGraph> streamed;
  std::string error;
  ASSERT_TRUE(StreamFsgTransactions(
      path,
      [&](LabeledGraph&& g) {
        streamed.push_back(std::move(g));
        return true;
      },
      &error))
      << error;
  ASSERT_EQ(streamed.size(), txns.size());
  for (std::size_t i = 0; i < txns.size(); ++i) {
    EXPECT_TRUE(streamed[i].StructurallyEqual(txns[i])) << "transaction " << i;
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, StreamFsgEarlyStopIsSuccess) {
  const std::vector<LabeledGraph> txns(4, SampleGraph());
  const std::string path = ::testing::TempDir() + "/tnmine_stream_stop.txt";
  ASSERT_TRUE(WriteTextFile(path, WriteFsgFormat(txns)));
  std::size_t seen = 0;
  std::string error;
  ASSERT_TRUE(StreamFsgTransactions(
      path, [&](LabeledGraph&&) { return ++seen < 2; }, &error))
      << error;
  EXPECT_EQ(seen, 2u);  // the callback's false stopped the scan there
  std::remove(path.c_str());
}

TEST(GraphIoTest, StreamFsgRejectsMalformedAndMissingFiles) {
  const std::string path = ::testing::TempDir() + "/tnmine_stream_bad.txt";
  ASSERT_TRUE(WriteTextFile(path, "t # 0\nv 0 1\nv 1 2\ne 0 9 5\n"));
  std::size_t seen = 0;
  std::string error;
  EXPECT_FALSE(StreamFsgTransactions(
      path,
      [&](LabeledGraph&&) {
        ++seen;
        return true;
      },
      &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(seen, 0u);  // the bad transaction never reached the callback
  std::remove(path.c_str());

  EXPECT_FALSE(StreamFsgTransactions(
      "/does/not/exist.fsg", [](LabeledGraph&&) { return true; }, &error));
}

}  // namespace
}  // namespace tnmine::graph
