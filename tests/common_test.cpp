// Unit tests for the common substrate: RNG distributions, statistics,
// tables, CSV round-tripping.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace sb {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 7.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, UniformIndexCoversAllBuckets) {
  Rng rng(2);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.uniform_index(7)];
  for (int h : hits) EXPECT_GT(h, 700);  // each ~1000 expected
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  const double m = mean(xs);
  double squares = 0.0;
  for (double x : xs) squares += (x - m) * (x - m);
  EXPECT_NEAR(m, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(squares / static_cast<double>(xs.size() - 1)), 2.0,
              0.1);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(4);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 20000; ++i) {
    small.push_back(static_cast<double>(rng.poisson(3.0)));
    large.push_back(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(mean(small), 3.0, 0.1);
  EXPECT_NEAR(mean(large), 200.0, 1.5);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.exponential(0.5));
  EXPECT_NEAR(mean(xs), 2.0, 0.1);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.weighted_index(weights)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / hits[0], 3.0, 0.5);
}

TEST(RngTest, WeightedIndexRejectsBadInput) {
  Rng rng(7);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), InvalidArgument);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), InvalidArgument);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndIsDecreasing) {
  ZipfSampler zipf(100, 1.2);
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) {
    total += zipf.pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, TopRanksDominate) {
  // The Fig 7(c) effect: a small fraction of ranks carries most draws.
  ZipfSampler zipf(1000, 1.25);
  Rng rng(8);
  int top10 = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    if (zipf(rng) < 10) ++top10;
  }
  EXPECT_GT(static_cast<double>(top10) / draws, 0.5);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), InvalidArgument);
}

TEST(StatsTest, RmseAndMae) {
  std::vector<double> truth{1.0, 2.0, 3.0};
  std::vector<double> est{1.0, 4.0, 1.0};
  EXPECT_NEAR(mae(truth, est), (0.0 + 2.0 + 2.0) / 3.0, 1e-12);
  EXPECT_NEAR(rmse(truth, est), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(TableTest, AlignsColumns) {
  TextTable t({"name", "value"});
  t.row().cell("x").cell(1.5);
  t.row().cell("longer").cell(std::int64_t{42});
  const std::string out = t.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(TableTest, RejectsTooManyCells) {
  TextTable t({"a"});
  t.row().cell("1");
  EXPECT_THROW(t.cell("2"), InvalidArgument);
}

TEST(CsvTest, RoundTripsQuotedFields) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
  writer.write_row("label", {1.25, 2.5}, 2);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "with,comma");
  EXPECT_EQ(rows[0][2], "with\"quote");
  EXPECT_EQ(rows[0][3], "multi\nline");
  EXPECT_EQ(rows[1][0], "label");
  EXPECT_EQ(rows[1][1], "1.25");
}

TEST(CsvTest, ParsesEmptyFields) {
  const auto rows = parse_csv("a,,c\n,x,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][1], "");
  EXPECT_EQ(rows[1][0], "");
  EXPECT_EQ(rows[1][2], "");
}

}  // namespace
}  // namespace sb
