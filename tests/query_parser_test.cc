#include "db/query_parser.h"

#include <gtest/gtest.h>

namespace rankties {
namespace {

Schema RestaurantSchema() {
  return Schema({
      {"cuisine", ColumnType::kCategorical},
      {"distance", ColumnType::kNumeric},
      {"price", ColumnType::kNumeric},
      {"stars", ColumnType::kNumeric},
  });
}

TEST(QueryParserTest, ParsesFullQuery) {
  auto prefs = ParsePreferences(
      RestaurantSchema(),
      "cuisine:thai>italian distance:asc~10 price:asc stars:desc");
  ASSERT_TRUE(prefs.ok()) << prefs.status();
  ASSERT_EQ(prefs->size(), 4u);

  EXPECT_EQ((*prefs)[0].column, "cuisine");
  EXPECT_EQ((*prefs)[0].mode, AttributePreference::Mode::kCategoryOrder);
  EXPECT_EQ((*prefs)[0].category_order,
            (std::vector<std::string>{"thai", "italian"}));

  EXPECT_EQ((*prefs)[1].mode, AttributePreference::Mode::kAscending);
  EXPECT_DOUBLE_EQ((*prefs)[1].granularity, 10.0);

  EXPECT_EQ((*prefs)[2].mode, AttributePreference::Mode::kAscending);
  EXPECT_DOUBLE_EQ((*prefs)[2].granularity, 0.0);

  EXPECT_EQ((*prefs)[3].mode, AttributePreference::Mode::kDescending);
}

TEST(QueryParserTest, ParsesNear) {
  auto prefs = ParsePreferences(RestaurantSchema(), "price:near=25.5~5");
  ASSERT_TRUE(prefs.ok());
  EXPECT_EQ((*prefs)[0].mode, AttributePreference::Mode::kNear);
  EXPECT_DOUBLE_EQ((*prefs)[0].target, 25.5);
  EXPECT_DOUBLE_EQ((*prefs)[0].granularity, 5.0);
}

TEST(QueryParserTest, SingleCategoryLevel) {
  // A bare level on a categorical column is a one-level preference order.
  auto prefs = ParsePreferences(RestaurantSchema(), "cuisine:thai");
  ASSERT_TRUE(prefs.ok());
  EXPECT_EQ((*prefs)[0].mode, AttributePreference::Mode::kCategoryOrder);
  EXPECT_EQ((*prefs)[0].category_order, (std::vector<std::string>{"thai"}));
}

TEST(QueryParserTest, RejectsMalformedTerms) {
  const Schema schema = RestaurantSchema();
  EXPECT_FALSE(ParsePreferences(schema, "").ok());
  EXPECT_FALSE(ParsePreferences(schema, "price").ok());          // no colon
  EXPECT_FALSE(ParsePreferences(schema, ":asc").ok());           // no column
  EXPECT_FALSE(ParsePreferences(schema, "bogus:asc").ok());      // unknown
  EXPECT_FALSE(ParsePreferences(schema, "price:sideways").ok()); // bad spec
  EXPECT_FALSE(ParsePreferences(schema, "price:asc~0").ok());    // gran <= 0
  EXPECT_FALSE(ParsePreferences(schema, "price:asc~x").ok());    // bad number
  EXPECT_FALSE(ParsePreferences(schema, "price:near=nan").ok()); // NaN
  EXPECT_FALSE(ParsePreferences(schema, "price:near=").ok());    // no target
  EXPECT_FALSE(ParsePreferences(schema, "price:a>b").ok());      // cat on num
  EXPECT_FALSE(ParsePreferences(schema, "cuisine:a>>b").ok());   // empty lvl
  EXPECT_FALSE(ParsePreferences(schema, "cuisine:near=3").ok()); // num on cat
}

TEST(QueryParserTest, RoundTripsThroughFormat) {
  const std::string query =
      "cuisine:thai>italian distance:asc~10 price:near=25~5 stars:desc";
  auto prefs = ParsePreferences(RestaurantSchema(), query);
  ASSERT_TRUE(prefs.ok());
  const std::string formatted = FormatPreferences(*prefs);
  auto reparsed = ParsePreferences(RestaurantSchema(), formatted);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), prefs->size());
  for (std::size_t i = 0; i < prefs->size(); ++i) {
    EXPECT_EQ((*reparsed)[i].column, (*prefs)[i].column);
    EXPECT_EQ((*reparsed)[i].mode, (*prefs)[i].mode);
    EXPECT_DOUBLE_EQ((*reparsed)[i].target, (*prefs)[i].target);
    EXPECT_DOUBLE_EQ((*reparsed)[i].granularity, (*prefs)[i].granularity);
    EXPECT_EQ((*reparsed)[i].category_order, (*prefs)[i].category_order);
  }
}

}  // namespace
}  // namespace rankties
