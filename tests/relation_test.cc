#include "relational/relation.h"

#include <gtest/gtest.h>

#include <sstream>

#include "relational/csv.h"
#include "relational/csv_stream.h"

namespace certfix {
namespace {

SchemaPtr S() {
  return Schema::Make("R", std::vector<std::string>{"a", "b"});
}

TEST(RelationTest, AppendAndAccess) {
  Relation rel(S());
  EXPECT_TRUE(rel.empty());
  ASSERT_TRUE(rel.AppendStrings({"x", "y"}).ok());
  ASSERT_TRUE(rel.AppendStrings({"z", "w"}).ok());
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.at(1).at(0).as_string(), "z");
}

TEST(RelationTest, AppendSchemaMismatch) {
  Relation rel(S());
  SchemaPtr other = Schema::Make("Q", std::vector<std::string>{"a", "b"});
  Tuple t(other);
  EXPECT_FALSE(rel.Append(t).ok());
}

TEST(RelationTest, AppendEqualSchemaDifferentPointer) {
  Relation rel(S());
  SchemaPtr same_shape = S();  // distinct pointer, structurally equal
  Tuple t(same_shape);
  EXPECT_TRUE(rel.Append(t).ok());
}

TEST(RelationTest, UpdateRowReportsChangedCells) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"x", "y"}).ok());
  // Same-pool no-op: identical ids, empty mask.
  EXPECT_TRUE(rel.UpdateRow(0, rel.at(0)).Empty());
  // Cross-pool tuple differing on b only.
  Result<Tuple> t = Tuple::FromStrings(S(), {"x", "w"});
  ASSERT_TRUE(t.ok());
  AttrSet changed = rel.UpdateRow(0, *t);
  EXPECT_EQ(changed, AttrSet({1}));
  EXPECT_EQ(rel.at(0).at(1).as_string(), "w");
  // Cross-pool identical tuple: empty mask again.
  EXPECT_TRUE(rel.UpdateRow(0, *t).Empty());
}

TEST(RelationTest, DistinctValues) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"x", "1"}).ok());
  ASSERT_TRUE(rel.AppendStrings({"x", "2"}).ok());
  ASSERT_TRUE(rel.AppendStrings({"y", "1"}).ok());
  EXPECT_EQ(rel.DistinctValues(0).size(), 2u);
  EXPECT_EQ(rel.DistinctValues(1).size(), 2u);
}

TEST(RelationTest, ActiveDomain) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"x", "y"}).ok());
  ASSERT_TRUE(rel.AppendStrings({"y", "z"}).ok());
  EXPECT_EQ(rel.ActiveDomain().size(), 3u);  // x, y, z
}

TEST(RelationTest, RangeFor) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"x", "y"}).ok());
  size_t n = 0;
  for (const Tuple& t : rel) {
    (void)t;
    ++n;
  }
  EXPECT_EQ(n, 1u);
}

TEST(CsvTest, FormatRoundTrip) {
  std::vector<std::string> fields{"plain", "with,comma", "with\"quote"};
  std::istringstream in(FormatCsvLine(fields) + "\n");
  CsvRecordReader reader(in);
  std::vector<std::string> back;
  Result<bool> got = reader.Next(&back);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(back, fields);
}

TEST(CsvTest, ReadWriteRelation) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"x,1", "y"}).ok());
  ASSERT_TRUE(rel.AppendStrings({"", "w"}).ok());  // null cell
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(rel, out).ok());

  std::istringstream in(out.str());
  Result<Relation> rt = ReadCsv(S(), in);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->size(), 2u);
  EXPECT_EQ(rt->at(0).at(0).as_string(), "x,1");
  EXPECT_TRUE(rt->at(1).at(0).is_null());
}

TEST(CsvTest, HeaderMismatchRejected) {
  std::istringstream in("a,WRONG\nx,y\n");
  EXPECT_FALSE(ReadCsv(S(), in).ok());
}

TEST(CsvTest, ArityMismatchRejected) {
  std::istringstream in("a,b\nx\n");
  EXPECT_FALSE(ReadCsv(S(), in).ok());
}

TEST(CsvTest, EmptyInputRejected) {
  std::istringstream in("");
  EXPECT_FALSE(ReadCsv(S(), in).ok());
}

}  // namespace
}  // namespace certfix
