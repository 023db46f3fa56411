#include "ml/arff.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "data/generator.h"

namespace tnmine::ml {
namespace {

AttributeTable Sample() {
  AttributeTable t;
  t.AddNumericAttribute("weight");
  t.AddNominalAttribute("mode", {"TL", "LTL"});
  t.AddNominalAttribute("note", {"plain", "with space", "tricky,comma"});
  t.AddRow({120.5, 0, 0});
  t.AddRow({44000, 1, 1});
  t.AddRow({3.25, 1, 2});
  return t;
}

TEST(ArffTest, WriteContainsHeaderAndData) {
  const std::string text = WriteArff(Sample(), "shipments");
  EXPECT_NE(text.find("@relation shipments"), std::string::npos);
  EXPECT_NE(text.find("@attribute weight numeric"), std::string::npos);
  EXPECT_NE(text.find("@attribute mode {TL,LTL}"), std::string::npos);
  EXPECT_NE(text.find("'with space'"), std::string::npos);
  EXPECT_NE(text.find("@data"), std::string::npos);
  EXPECT_NE(text.find("120.5,TL,plain"), std::string::npos);
}

TEST(ArffTest, RoundTrip) {
  const AttributeTable original = Sample();
  AttributeTable back;
  ParseError error;
  ASSERT_TRUE(ReadArff(WriteArff(original, "r"), &back, &error))
      << error.ToString();
  ASSERT_EQ(back.num_rows(), original.num_rows());
  ASSERT_EQ(back.num_attributes(), original.num_attributes());
  for (int a = 0; a < original.num_attributes(); ++a) {
    EXPECT_EQ(back.attribute(a).name, original.attribute(a).name);
    EXPECT_EQ(back.attribute(a).kind, original.attribute(a).kind);
    EXPECT_EQ(back.attribute(a).values, original.attribute(a).values);
  }
  for (std::size_t r = 0; r < original.num_rows(); ++r) {
    for (int a = 0; a < original.num_attributes(); ++a) {
      EXPECT_DOUBLE_EQ(back.value(r, a), original.value(r, a));
    }
  }
}

TEST(ArffTest, SkipsCommentsAndBlankLines) {
  const std::string text =
      "% a comment\n@relation r\n\n@attribute x numeric\n@data\n% mid\n"
      "1.5\n\n2.5\n";
  AttributeTable table;
  ParseError error;
  ASSERT_TRUE(ReadArff(text, &table, &error)) << error.ToString();
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.value(1, 0), 2.5);
}

TEST(ArffTest, RejectsUnknownNominalValue) {
  const std::string text =
      "@relation r\n@attribute m {a,b}\n@data\nc\n";
  AttributeTable table;
  ParseError error;
  EXPECT_FALSE(ReadArff(text, &table, &error));
  EXPECT_NE(error.message.find("unknown nominal"), std::string::npos);
}

TEST(ArffTest, RejectsBadNumeric) {
  const std::string text =
      "@relation r\n@attribute x numeric\n@data\nnot-a-number\n";
  AttributeTable table;
  ParseError error;
  EXPECT_FALSE(ReadArff(text, &table, &error));
}

TEST(ArffTest, RejectsWrongCellCount) {
  const std::string text =
      "@relation r\n@attribute x numeric\n@attribute y numeric\n@data\n1\n";
  AttributeTable table;
  ParseError error;
  EXPECT_FALSE(ReadArff(text, &table, &error));
  EXPECT_NE(error.message.find("cell count"), std::string::npos);
}

TEST(ArffTest, RejectsMissingData) {
  AttributeTable table;
  ParseError error;
  EXPECT_FALSE(ReadArff("@relation r\n@attribute x numeric\n", &table,
                        &error));
}

TEST(ArffTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tnmine_arff_test.arff";
  const auto ds =
      data::GenerateTransportData(data::GeneratorConfig::SmallScale());
  const AttributeTable table = AttributeTable::FromTransactions(ds);
  std::string error;
  ASSERT_TRUE(SaveArff(table, "transport", path, &error)) << error;
  AttributeTable back;
  ASSERT_TRUE(LoadArff(path, &back, &error)) << error;
  EXPECT_EQ(back.num_rows(), table.num_rows());
  EXPECT_EQ(back.num_attributes(), table.num_attributes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tnmine::ml
