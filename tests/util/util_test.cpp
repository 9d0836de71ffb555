#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace cref::util {
namespace {

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.5), "3.5");
  EXPECT_EQ(format_double(4.0), "4");
  EXPECT_EQ(format_double(1.005, 2), "1");  // rounds then trims
  EXPECT_EQ(format_double(0.125, 3), "0.125");
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(CliTest, ParsesForms) {
  const char* argv[] = {"prog", "--n=5", "--verbose", "--mode", "fast", "positional"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("mode"), "fast");
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"positional"}));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("mode", 7), 7);  // non-numeric falls back
}

TEST(CliTest, GetCountReportsValuesBelowOneAndMalformedOnes) {
  const char* argv[] = {"prog", "--a=3", "--b=0", "--c=-2", "--d=2e9", "--e=x"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_count("a", 9), std::optional<std::size_t>(3));
  EXPECT_EQ(cli.get_count("missing", 9), std::optional<std::size_t>(9));
  for (const char* key : {"b", "c", "d", "e"}) EXPECT_EQ(cli.get_count(key, 9), std::nullopt);
}

}  // namespace
}  // namespace cref::util
