#include <gtest/gtest.h>

#include "db/query.h"
#include "db/schema.h"
#include "db/table.h"
#include "db/value.h"
#include "gen/datasets.h"
#include "util/rng.h"

namespace rankties {
namespace {

Table SampleRestaurants() {
  Table table(Schema({
      {"cuisine", ColumnType::kCategorical},
      {"distance_miles", ColumnType::kNumeric},
      {"price_tier", ColumnType::kNumeric},
      {"stars", ColumnType::kNumeric},
  }));
  // id: cuisine, distance, price, stars
  // 0: thai, 2.0, 2, 4.5 | 1: thai, 8.0, 1, 4.0 | 2: italian, 1.0, 3, 5.0
  // 3: mexican, 12.0, 1, 3.5 | 4: italian, 25.0, 4, 4.5
  EXPECT_TRUE(table.AddRow({Value(std::string("thai")), Value(2.0), Value(2.0),
                            Value(4.5)})
                  .ok());
  EXPECT_TRUE(table.AddRow({Value(std::string("thai")), Value(8.0), Value(1.0),
                            Value(4.0)})
                  .ok());
  EXPECT_TRUE(table.AddRow({Value(std::string("italian")), Value(1.0),
                            Value(3.0), Value(5.0)})
                  .ok());
  EXPECT_TRUE(table.AddRow({Value(std::string("mexican")), Value(12.0),
                            Value(1.0), Value(3.5)})
                  .ok());
  EXPECT_TRUE(table.AddRow({Value(std::string("italian")), Value(25.0),
                            Value(4.0), Value(4.5)})
                  .ok());
  return table;
}

TEST(ValueTest, KindsAndAccessors) {
  const Value null;
  const Value num(3.5);
  const Value text(std::string("abc"));
  EXPECT_TRUE(null.is_null());
  ASSERT_TRUE(num.AsNumber().ok());
  EXPECT_DOUBLE_EQ(*num.AsNumber(), 3.5);
  EXPECT_FALSE(num.AsText().ok());
  ASSERT_TRUE(text.AsText().ok());
  EXPECT_EQ(*text.AsText(), "abc");
  EXPECT_EQ(num.ToString(), "3.5");
  EXPECT_EQ(Value(4.0).ToString(), "4");
  EXPECT_EQ(null.ToString(), "");
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value(), Value(1.0));
  EXPECT_LT(Value(1.0), Value(std::string("a")));
  EXPECT_LT(Value(1.0), Value(2.0));
  EXPECT_LT(Value(std::string("a")), Value(std::string("b")));
  EXPECT_EQ(Value(2.0), Value(2.0));
  EXPECT_FALSE(Value(2.0) == Value(std::string("2")));
}

TEST(SchemaTest, Lookup) {
  const Schema schema({{"a", ColumnType::kNumeric},
                       {"b", ColumnType::kCategorical}});
  auto idx = schema.IndexOf("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(schema.IndexOf("zzz").ok());
}

TEST(TableTest, AddRowValidation) {
  Table table(Schema({{"x", ColumnType::kNumeric}}));
  EXPECT_FALSE(table.AddRow({Value(1.0), Value(2.0)}).ok());      // arity
  EXPECT_FALSE(table.AddRow({Value(std::string("no"))}).ok());    // type
  EXPECT_TRUE(table.AddRow({Value()}).ok());                      // null ok
  EXPECT_TRUE(table.AddRow({Value(7.0)}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, RankAscendingTiesEqualValues) {
  const Table table = SampleRestaurants();
  auto order = table.RankAscending("price_tier");
  ASSERT_TRUE(order.ok());
  // price tiers: 2,1,3,1,4 -> [1 3 | 0 | 2 | 4].
  EXPECT_EQ(order->ToString(), "[1 3 | 0 | 2 | 4]");
}

TEST(TableTest, RankAscendingWithGranularityBands) {
  const Table table = SampleRestaurants();
  // 10-mile bands: distances 2,8 -> band 0; 12 -> band 1; 1 -> band 0;
  // 25 -> band 2. The paper's "any distance up to ten miles is the same".
  auto order = table.RankAscending("distance_miles", 10.0);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->ToString(), "[0 1 2 | 3 | 4]");
}

TEST(TableTest, RankDescendingStars) {
  const Table table = SampleRestaurants();
  auto order = table.RankDescending("stars");
  ASSERT_TRUE(order.ok());
  // stars: 4.5,4,5,3.5,4.5 -> [2 | 0 4 | 1 | 3].
  EXPECT_EQ(order->ToString(), "[2 | 0 4 | 1 | 3]");
}

TEST(TableTest, RankNearTarget) {
  const Table table = SampleRestaurants();
  // target price 2: |2-2|=0 -> 0; |1-2|=1 -> 1,3; |3-2|=1 -> 2; |4-2|=2 -> 4.
  auto order = table.RankNear("price_tier", 2.0, 0);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->ToString(), "[0 | 1 2 3 | 4]");
}

TEST(TableTest, RankCategoricalPreference) {
  const Table table = SampleRestaurants();
  auto order = table.RankCategorical("cuisine", {"italian", "thai"});
  ASSERT_TRUE(order.ok());
  // italian: 2,4; thai: 0,1; mexican unlisted -> bottom.
  EXPECT_EQ(order->ToString(), "[2 4 | 0 1 | 3]");
  EXPECT_FALSE(table.RankCategorical("cuisine", {"thai", "thai"}).ok());
  EXPECT_FALSE(table.RankCategorical("stars", {"a"}).ok());
}

TEST(TableTest, CsvRoundTrip) {
  const Table table = SampleRestaurants();
  const std::string csv = table.ToCsv();
  auto parsed = Table::FromCsv(table.schema(), csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_rows(), table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.schema().num_columns(); ++c) {
      EXPECT_EQ(parsed->At(r, c), table.At(r, c)) << r << "," << c;
    }
  }
}

TEST(TableTest, CsvHandlesQuoting) {
  Table table(Schema({{"name", ColumnType::kCategorical}}));
  ASSERT_TRUE(table.AddRow({Value(std::string("a,b \"quoted\""))}).ok());
  auto parsed = Table::FromCsv(table.schema(), table.ToCsv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->At(0, 0), Value(std::string("a,b \"quoted\"")));
}

TEST(TableTest, CsvRejectsMalformed) {
  const Schema schema({{"x", ColumnType::kNumeric}});
  EXPECT_FALSE(Table::FromCsv(schema, "").ok());               // no header
  EXPECT_FALSE(Table::FromCsv(schema, "y\n1\n").ok());         // bad header
  EXPECT_FALSE(Table::FromCsv(schema, "x\nabc\n").ok());       // bad number
  EXPECT_FALSE(Table::FromCsv(schema, "x\nnan\n").ok());       // NaN
  EXPECT_TRUE(Table::FromCsv(schema, "x\n-inf\n").ok());       // sorts
  EXPECT_FALSE(Table::FromCsv(schema, "x\n1,2\n").ok());       // arity
  EXPECT_FALSE(Table::FromCsv(schema, "x\n\"1\n").ok());       // quote
  EXPECT_TRUE(Table::FromCsv(schema, "x\n\n1.5\n").ok());      // blank line
}

TEST(QueryTest, DeriveRankingsAndProfiles) {
  const Table table = SampleRestaurants();
  PreferenceQuery query(table);
  query
      .Add({.column = "cuisine",
            .mode = AttributePreference::Mode::kCategoryOrder,
            .category_order = {"italian", "thai"}})
      .Add({.column = "distance_miles",
            .mode = AttributePreference::Mode::kAscending,
            .granularity = 10.0})
      .Add({.column = "stars",
            .mode = AttributePreference::Mode::kDescending});
  auto rankings = query.DeriveRankings();
  ASSERT_TRUE(rankings.ok());
  EXPECT_EQ(rankings->size(), 3u);
  const TieProfile profile = ProfileTies((*rankings)[1]);
  EXPECT_EQ(profile.num_buckets, 3u);
  EXPECT_EQ(profile.largest_bucket, 3u);
}

TEST(QueryTest, TopKReturnsPlausibleWinner) {
  const Table table = SampleRestaurants();
  PreferenceQuery query(table);
  query
      .Add({.column = "cuisine",
            .mode = AttributePreference::Mode::kCategoryOrder,
            .category_order = {"italian", "thai"}})
      .Add({.column = "distance_miles",
            .mode = AttributePreference::Mode::kAscending,
            .granularity = 10.0})
      .Add({.column = "stars",
            .mode = AttributePreference::Mode::kDescending});
  auto result = query.TopK(2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->top_rows.size(), 2u);
  // Restaurant 2 (italian, 1 mile, 5 stars) wins on every criterion.
  EXPECT_EQ(result->top_rows[0], 2);
}

TEST(QueryTest, MedrankPathAgreesOnTheWinner) {
  const Table table = SampleRestaurants();
  PreferenceQuery query(table);
  query
      .Add({.column = "cuisine",
            .mode = AttributePreference::Mode::kCategoryOrder,
            .category_order = {"italian", "thai"}})
      .Add({.column = "distance_miles",
            .mode = AttributePreference::Mode::kAscending,
            .granularity = 10.0})
      .Add({.column = "stars",
            .mode = AttributePreference::Mode::kDescending});
  auto offline = query.TopK(1);
  auto online = query.TopKMedrank(1);
  ASSERT_TRUE(offline.ok() && online.ok());
  ASSERT_EQ(online->top_rows.size(), 1u);
  EXPECT_EQ(online->top_rows[0], offline->top_rows[0]);
  EXPECT_GT(online->sorted_accesses, 0);
  EXPECT_LE(online->sorted_accesses, 15);  // at most m * n
}

TEST(QueryTest, ExplainReportsPerCriterionPositions) {
  const Table table = SampleRestaurants();
  PreferenceQuery query(table);
  query
      .Add({.column = "price_tier",
            .mode = AttributePreference::Mode::kAscending})
      .Add({.column = "stars",
            .mode = AttributePreference::Mode::kDescending})
      .Add({.column = "distance_miles",
            .mode = AttributePreference::Mode::kAscending,
            .granularity = 10.0});
  auto explanation = query.Explain(2);
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->row, 2);
  ASSERT_EQ(explanation->positions.size(), 3u);
  // price_tier: 2,1,3,1,4 -> row 2 (tier 3) sits at position 4.
  EXPECT_DOUBLE_EQ(explanation->positions[0], 4.0);
  // stars: row 2 has 5.0 -> first.
  EXPECT_DOUBLE_EQ(explanation->positions[1], 1.0);
  // distance band 0 shared with rows 0,1 -> pos 2.
  EXPECT_DOUBLE_EQ(explanation->positions[2], 2.0);
  // Lower median of {4, 1, 2} = 2.
  EXPECT_DOUBLE_EQ(explanation->median_position, 2.0);
  EXPECT_FALSE(query.Explain(99).ok());
  EXPECT_FALSE(query.Explain(-1).ok());
}

TEST(QueryTest, FiltersThenRank) {
  const Table table = SampleRestaurants();
  auto cheap = table.WhereNumericRange("price_tier", 1, 2);
  ASSERT_TRUE(cheap.ok());
  EXPECT_EQ(cheap->table.num_rows(), 3u);  // rows 0, 1, 3
  EXPECT_EQ(cheap->original_rows, (std::vector<ElementId>{0, 1, 3}));
  auto thai = table.WhereCategoryIn("cuisine", {"thai"});
  ASSERT_TRUE(thai.ok());
  EXPECT_EQ(thai->original_rows, (std::vector<ElementId>{0, 1}));
  EXPECT_FALSE(table.WhereNumericRange("cuisine", 0, 1).ok());
  EXPECT_FALSE(table.WhereCategoryIn("stars", {"5"}).ok());
}

TEST(TableTest, SelectProjectsColumns) {
  const Table table = SampleRestaurants();
  auto projected = table.Select({"stars", "cuisine"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->schema().num_columns(), 2u);
  EXPECT_EQ(projected->schema().column(0).name, "stars");
  EXPECT_EQ(projected->num_rows(), table.num_rows());
  EXPECT_EQ(projected->At(2, 0), Value(5.0));
  EXPECT_EQ(projected->At(2, 1), Value(std::string("italian")));
  EXPECT_FALSE(table.Select({"stars", "stars"}).ok());
  EXPECT_FALSE(table.Select({"nope"}).ok());
  EXPECT_FALSE(table.Select({}).ok());
}

TEST(QueryTest, ErrorsPropagate) {
  const Table table = SampleRestaurants();
  PreferenceQuery query(table);
  query.Add({.column = "nope"});
  EXPECT_FALSE(query.TopK(1).ok());
  PreferenceQuery empty(table);
  EXPECT_FALSE(empty.TopK(1).ok());
}

TEST(DatasetsTest, GeneratedTablesAreWellFormed) {
  Rng rng(1);
  const Table restaurants = MakeRestaurantTable(200, rng);
  EXPECT_EQ(restaurants.num_rows(), 200u);
  auto cuisines = restaurants.CategoricalLevels("cuisine");
  ASSERT_TRUE(cuisines.ok());
  EXPECT_GE(cuisines->size(), 3u);
  EXPECT_LE(cuisines->size(), 8u);

  const Table flights = MakeFlightTable(150, rng);
  auto connections = flights.RankAscending("connections");
  ASSERT_TRUE(connections.ok());
  // Few-valued: at most 4 buckets (0..3 connections).
  EXPECT_LE(connections->num_buckets(), 4u);

  const Table bib = MakeBibliographyTable(100, rng);
  auto years = bib.RankDescending("year");
  ASSERT_TRUE(years.ok());
  EXPECT_LE(years->num_buckets(), 25u);

  const Table awards = MakeAwardsTable(150, rng);
  auto durations = awards.RankAscending("duration_months");
  ASSERT_TRUE(durations.ok());
  EXPECT_LE(durations->num_buckets(), 5u);  // five-valued attribute
  auto directorates = awards.CategoricalLevels("directorate");
  ASSERT_TRUE(directorates.ok());
  EXPECT_LE(directorates->size(), 7u);
}

}  // namespace
}  // namespace rankties
