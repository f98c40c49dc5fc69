// Tests for the §8 call-config prediction stack: MOMC, logistic regression,
// and the end-to-end model-vs-previous-instance comparison.
#include <gtest/gtest.h>

#include "geo/world_presets.h"
#include "predict/config_predictor.h"

namespace sb {
namespace {

TEST(MomcTest, LearnsAlwaysAttendPattern) {
  MarkovAttendanceModel model(3, 2);
  const std::vector<std::uint8_t> always(20, 1);
  model.observe(always);
  const std::vector<std::uint8_t> history{1, 1, 1};
  EXPECT_GT(model.predict(history), 0.85);
}

TEST(MomcTest, LearnsAlternatingPattern) {
  MarkovAttendanceModel model(3, 2);
  std::vector<std::uint8_t> alternating;
  for (int i = 0; i < 40; ++i) alternating.push_back(i % 2);
  model.observe(alternating);
  const std::vector<std::uint8_t> after_attend{0, 1};
  const std::vector<std::uint8_t> after_miss{1, 0};
  EXPECT_LT(model.predict(after_attend), 0.25);
  EXPECT_GT(model.predict(after_miss), 0.75);
}

TEST(MomcTest, BacksOffToGlobalRateWithoutSupport) {
  MarkovAttendanceModel model(3, 100);  // huge support requirement
  std::vector<std::uint8_t> bits{1, 1, 0, 1, 1, 0, 1, 1};
  model.observe(bits);
  const std::vector<std::uint8_t> history{1, 0};
  EXPECT_NEAR(model.predict(history), model.global_rate(), 1e-9);
  EXPECT_GT(model.global_rate(), 0.5);
}

TEST(MomcTest, ContextsOfDifferentLengthsDoNotCollide) {
  MarkovAttendanceModel model(2, 1);
  // "0" contexts behave differently from "00" contexts.
  std::vector<std::uint8_t> seq{0, 1, 0, 0, 0, 1, 0, 0, 0, 1};
  model.observe(seq);
  const auto probs =
      model.order_probs(std::vector<std::uint8_t>{0, 0});
  EXPECT_EQ(probs.size(), 2u);
}

TEST(LogisticTest, LearnsLinearlySeparableData) {
  Rng rng(5);
  std::vector<std::vector<double>> xs;
  std::vector<std::uint8_t> ys;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    xs.push_back({a, b});
    ys.push_back(a + b > 0.0 ? 1 : 0);
  }
  LogisticRegression model(2);
  LogisticOptions options;
  options.epochs = 80;
  model.fit(xs, ys, options);
  int correct = 0;
  for (int i = 0; i < 400; ++i) {
    const bool predicted = model.predict_prob(xs[i]) > 0.5;
    if (predicted == (ys[i] != 0)) ++correct;
  }
  EXPECT_GT(correct, 360);  // > 90% on training data
}

TEST(LogisticTest, ValidatesShapes) {
  LogisticRegression model(3);
  EXPECT_THROW(model.fit({{1.0, 2.0}}, {1}), InvalidArgument);
  EXPECT_THROW(model.fit({}, {}), InvalidArgument);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW((void)model.predict_prob(wrong), InvalidArgument);
}

TEST(MeetingSeriesTest, GeneratorShapesAreSane) {
  const GeoModel apac = make_apac_world();
  Rng rng(17);
  SeriesGenParams params;
  params.series_count = 60;
  const auto series = generate_meeting_series(apac.world, params, rng);
  ASSERT_EQ(series.size(), 60u);
  bool saw_large = false;
  for (const MeetingSeries& s : series) {
    EXPECT_GE(s.roster.size(), params.min_roster);
    EXPECT_LE(s.roster.size(), params.large_roster);
    EXPECT_GE(s.instances(), params.min_instances);
    EXPECT_LE(s.instances(), params.max_instances);
    if (s.roster.size() > params.max_roster) saw_large = true;
    for (const auto& inst : s.attendance) {
      EXPECT_EQ(inst.size(), s.roster.size());
    }
  }
  EXPECT_TRUE(saw_large);  // §8's "dozens or even hundreds" tail
}

TEST(ConfigPredictorTest, BeatsPreviousInstanceBaseline) {
  // §8's headline: the MOMC+logistic model has far lower RMSE/MAE than
  // predicting "same as last instance".
  const GeoModel apac = make_apac_world();
  Rng rng(23);
  SeriesGenParams params;
  params.series_count = 250;
  auto series = generate_meeting_series(apac.world, params, rng);
  const std::size_t split = series.size() * 3 / 4;
  std::vector<MeetingSeries> train(series.begin(),
                                   series.begin() + static_cast<long>(split));
  std::vector<MeetingSeries> test(series.begin() + static_cast<long>(split),
                                  series.end());

  ConfigPredictor model;
  model.train(train);
  const PredictionEval ours =
      evaluate_model(model, test, apac.world.location_count());
  const PredictionEval baseline =
      evaluate_previous_instance(test, apac.world.location_count());

  EXPECT_GT(ours.instances, 20u);
  EXPECT_LT(ours.rmse, baseline.rmse * 0.75);
  EXPECT_LT(ours.mae, baseline.mae * 0.75);
}

TEST(ConfigPredictorTest, ProbabilitiesAreCalibratedForStickyAttendees) {
  const GeoModel apac = make_apac_world();
  Rng rng(29);
  SeriesGenParams params;
  params.series_count = 120;
  auto series = generate_meeting_series(apac.world, params, rng);
  ConfigPredictor model;
  model.train(series);
  // A participant who attended everything should be predicted to attend.
  MeetingSeries synthetic;
  synthetic.roster = {LocationId(0)};
  synthetic.attendance.assign(10, {1});
  EXPECT_GT(model.attendance_prob(synthetic, 0, 10), 0.6);
  MeetingSeries absent;
  absent.roster = {LocationId(0)};
  absent.attendance.assign(10, {0});
  EXPECT_LT(model.attendance_prob(absent, 0, 10), 0.4);
}

TEST(MeetingSeriesTest, LocationCounts) {
  MeetingSeries s;
  s.roster = {LocationId(0), LocationId(1), LocationId(0)};
  s.attendance = {{1, 1, 0}, {1, 0, 1}};
  const auto counts = s.location_counts(1, 3);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 0.0);
}

}  // namespace
}  // namespace sb
