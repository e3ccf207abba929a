#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/require.hpp"

namespace cloudfog::util {
namespace {

TEST(Table, StoresCells) {
  Table t("demo");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);
  EXPECT_EQ(t.cell(0, 1), "2");
  EXPECT_EQ(t.cell(1, 0), "3");
}

TEST(Table, RejectsRowWidthMismatch) {
  Table t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(Table, RejectsRowBeforeHeader) {
  Table t("demo");
  EXPECT_THROW(t.add_row({"x"}), ConfigError);
}

TEST(Table, RejectsHeaderAfterRows) {
  Table t("demo");
  t.set_header({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.set_header({"b"}), ConfigError);
}

TEST(Table, PrintContainsTitleHeaderAndCells) {
  Table t("my title");
  t.set_header({"col1", "col2"});
  t.add_row({"v1", "v2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("my title"), std::string::npos);
  EXPECT_NE(out.find("col1"), std::string::npos);
  EXPECT_NE(out.find("v2"), std::string::npos);
}

TEST(Table, CsvRoundTripSimple) {
  Table t("demo");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t("demo");
  t.set_header({"a"});
  t.add_row({"hello, \"world\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a\n\"hello, \"\"world\"\"\"\n");
}

TEST(Table, CellBoundsChecked) {
  Table t("demo");
  t.set_header({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.cell(1, 0), ConfigError);
  EXPECT_THROW(t.cell(0, 1), ConfigError);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

}  // namespace
}  // namespace cloudfog::util
