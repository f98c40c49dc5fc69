// Tests for the sb::obs metrics layer: exact concurrent counting under
// ThreadPool hammering, histogram bucket/percentile correctness, snapshot
// diff semantics, snapshot JSON and time-series CSV export, and the
// SB_METRICS=OFF no-op contract.
//
// The registry is process-global and tests may share a process, so every
// test uses its own metric names and diff-based assertions.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <sstream>
#include <vector>

#include "check/json.h"
#include "common/csv.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/timer.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"

namespace sb::obs {
namespace {

#ifdef SB_METRICS_ENABLED

TEST(ObsCounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr std::size_t kTasks = 16;
  constexpr std::uint64_t kPerTask = 50000;
  ThreadPool pool(8);
  std::vector<std::future<void>> done;
  done.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    done.push_back(pool.submit([&counter] {
      for (std::uint64_t i = 0; i < kPerTask; ++i) counter.inc();
    }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsGaugeTest, SetAddMax) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.max_of(10.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 10.0);
  gauge.max_of(3.0);  // lower value must not win
  EXPECT_DOUBLE_EQ(gauge.value(), 10.0);
}

TEST(ObsHistogramTest, ConcurrentRecordsExactCountAndSum) {
  Histogram histogram({.min = 1e-3, .max = 10.0, .bucket_count = 40});
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kPerTask = 20000;
  ThreadPool pool(8);
  std::vector<std::future<void>> done;
  for (std::size_t t = 0; t < kTasks; ++t) {
    done.push_back(pool.submit([&histogram, t] {
      for (std::size_t i = 0; i < kPerTask; ++i) {
        histogram.record(0.001 * static_cast<double>(t + 1));
      }
    }));
  }
  for (auto& f : done) f.get();

  const HistogramData data = histogram.collect();
  EXPECT_EQ(data.count, kTasks * kPerTask);
  // Bucket totals must equal the count (no sample lost or double-counted).
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, data.count);
  double expected_sum = 0.0;
  for (std::size_t t = 0; t < kTasks; ++t) {
    expected_sum += 0.001 * static_cast<double>(t + 1) * kPerTask;
  }
  EXPECT_NEAR(data.sum, expected_sum, 1e-6 * expected_sum);
  EXPECT_DOUBLE_EQ(data.min, 0.001);
  EXPECT_DOUBLE_EQ(data.max, 0.008);
}

TEST(ObsHistogramTest, PercentilesLandInTheRightBucket) {
  // Uniform 1..1000 ms: p50 ~ 500, p90 ~ 900, p99 ~ 990. Buckets are
  // geometric with ~19% growth at 40 buckets over [1e-1, 1e4], so allow one
  // bucket of slack.
  Histogram histogram({.min = 0.1, .max = 1e4, .bucket_count = 60});
  for (int v = 1; v <= 1000; ++v) histogram.record(static_cast<double>(v));
  const HistogramData data = histogram.collect();
  EXPECT_EQ(data.count, 1000u);
  EXPECT_NEAR(data.quantile(0.5), 500.0, 110.0);
  EXPECT_NEAR(data.quantile(0.9), 900.0, 190.0);
  EXPECT_NEAR(data.quantile(0.99), 990.0, 210.0);
  EXPECT_DOUBLE_EQ(data.quantile(0.0), 1.0);   // clamped to observed min
  EXPECT_DOUBLE_EQ(data.quantile(1.0), 1000.0);  // observed max
  // Cumulative bucket counts are monotone by construction; spot-check the
  // quantile function is monotone too.
  double last = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double value = data.quantile(q);
    EXPECT_GE(value, last);
    last = value;
  }
}

TEST(ObsHistogramTest, UnderAndOverflowAreCountedAndClamped) {
  Histogram histogram({.min = 1.0, .max = 10.0, .bucket_count = 4});
  histogram.record(0.01);   // underflow
  histogram.record(5.0);
  histogram.record(1000.0);  // overflow
  const HistogramData data = histogram.collect();
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.buckets.front(), 1u);
  EXPECT_EQ(data.buckets.back(), 1u);
  EXPECT_DOUBLE_EQ(data.min, 0.01);
  EXPECT_DOUBLE_EQ(data.max, 1000.0);
  EXPECT_DOUBLE_EQ(data.quantile(0.001), 0.01);
  EXPECT_DOUBLE_EQ(data.quantile(0.999), 1000.0);
}

TEST(ObsHistogramTest, PercentilesOnEmptySingleAndEdgeOnlyData) {
  // Empty: every derived statistic is 0.
  Histogram empty({.min = 1.0, .max = 10.0, .bucket_count = 4});
  const HistogramData none = empty.collect();
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(none.mean(), 0.0);

  // Single sample: min == max, so every quantile clamps to the sample.
  Histogram single({.min = 1.0, .max = 10.0, .bucket_count = 4});
  single.record(3.0);
  const HistogramData one = single.collect();
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(one.quantile(q), 3.0);
  }

  // All samples in the overflow bucket: the only honest estimate is the
  // exact observed max (the bucket has no finite upper edge).
  Histogram over({.min = 1.0, .max = 10.0, .bucket_count = 4});
  over.record(50.0);
  over.record(70.0);
  over.record(90.0);
  const HistogramData high = over.collect();
  EXPECT_EQ(high.buckets.back(), 3u);
  EXPECT_DOUBLE_EQ(high.quantile(0.5), 90.0);
  EXPECT_DOUBLE_EQ(high.quantile(0.99), 90.0);

  // All samples in the underflow bucket: symmetric, the exact observed min.
  Histogram under({.min = 1.0, .max = 10.0, .bucket_count = 4});
  under.record(0.1);
  under.record(0.2);
  const HistogramData low = under.collect();
  EXPECT_EQ(low.buckets.front(), 2u);
  EXPECT_DOUBLE_EQ(low.quantile(0.5), 0.1);
  EXPECT_DOUBLE_EQ(low.quantile(0.99), 0.1);
}

TEST(ObsHistogramTest, BucketBoundariesAndEdgeAssignment) {
  // min=1, max=16, 4 buckets -> geometric growth 2: finite buckets are
  // [1,2) [2,4) [4,8) [8,16), flanked by underflow (<1) and overflow (>=16).
  Histogram histogram({.min = 1.0, .max = 16.0, .bucket_count = 4});
  const HistogramData layout = histogram.collect();
  EXPECT_NEAR(layout.bucket_lower(1), 1.0, 1e-12);
  EXPECT_NEAR(layout.bucket_upper(1), 2.0, 1e-12);
  EXPECT_NEAR(layout.bucket_lower(3), 4.0, 1e-12);
  EXPECT_NEAR(layout.bucket_upper(3), 8.0, 1e-12);
  EXPECT_NEAR(layout.bucket_upper(4), 16.0, 1e-12);
  // Each finite bucket's upper edge is the next bucket's lower edge.
  for (std::size_t b = 1; b < 4; ++b) {
    EXPECT_NEAR(layout.bucket_upper(b), layout.bucket_lower(b + 1), 1e-12);
  }

  histogram.record(0.999);   // just below min -> underflow
  histogram.record(1.0);     // exactly min -> first finite bucket
  histogram.record(2.0);     // exactly an interior edge -> bucket 2 ([2,4))
  histogram.record(15.999);  // just below max -> last finite bucket
  histogram.record(16.0);    // exactly max -> overflow (buckets are [lo,hi))
  const HistogramData data = histogram.collect();
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[2], 1u);
  EXPECT_EQ(data.buckets[3], 0u);
  EXPECT_EQ(data.buckets[4], 1u);
  EXPECT_EQ(data.buckets[5], 1u);
}

TEST(ObsHistogramTest, DiffReportsWindowExtremaAtBucketResolution) {
  // Regression: the diff of a window must not claim the LIFETIME min/max as
  // the window's — it reports the edges of the window's occupied buckets.
  Histogram histogram({.min = 1.0, .max = 16.0, .bucket_count = 4});
  histogram.record(1.2);  // lifetime min, outside the window below
  const HistogramData before = histogram.collect();
  histogram.record(5.0);  // the window: one sample in bucket [4,8)
  const HistogramData after = histogram.collect();

  const HistogramData window = histogram_diff(before, after);
  EXPECT_EQ(window.count, 1u);
  EXPECT_DOUBLE_EQ(window.min, 4.0);  // bucket_lower(3), not 1.2
  EXPECT_DOUBLE_EQ(window.max, 8.0);  // bucket_upper(3), not 5.0
  // Quantiles of the window stay inside its bucket edges.
  EXPECT_GE(window.quantile(0.5), 4.0);
  EXPECT_LE(window.quantile(0.5), 8.0);

  // Empty window: 0/0, not the lifetime extremes.
  const HistogramData zero = histogram_diff(after, after);
  EXPECT_EQ(zero.count, 0u);
  EXPECT_DOUBLE_EQ(zero.min, 0.0);
  EXPECT_DOUBLE_EQ(zero.max, 0.0);

  // Empty `before`: the window IS the lifetime, so exact extremes carry.
  Histogram fresh({.min = 1.0, .max = 16.0, .bucket_count = 4});
  const HistogramData empty = fresh.collect();
  fresh.record(2.5);
  fresh.record(9.0);
  const HistogramData lifetime = histogram_diff(empty, fresh.collect());
  EXPECT_DOUBLE_EQ(lifetime.min, 2.5);
  EXPECT_DOUBLE_EQ(lifetime.max, 9.0);

  // Window entirely in the underflow bucket: no finite lower edge exists,
  // so min falls back to the exact lifetime min (a lower bound) while max
  // is the underflow bucket's upper edge (= options.min).
  Histogram low({.min = 1.0, .max = 16.0, .bucket_count = 4});
  low.record(5.0);
  const HistogramData low_before = low.collect();
  low.record(0.25);
  const HistogramData low_window = histogram_diff(low_before, low.collect());
  EXPECT_DOUBLE_EQ(low_window.min, 0.25);
  EXPECT_DOUBLE_EQ(low_window.max, 1.0);
}

TEST(ObsTimeSeriesTest, CadenceAndCounterDeltaTotals) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& counter = registry.counter("test.timeseries.calls");
  counter.inc(5);  // pre-existing total before recording starts

  TimeSeriesRecorder recorder(&registry, {.period_s = 60.0});
  recorder.sample(0.0);   // first call always samples
  recorder.sample(30.0);  // off-cadence: skipped
  EXPECT_EQ(recorder.sample_count(), 1u);
  counter.inc(7);
  recorder.sample(60.0);  // due
  counter.inc(2);
  recorder.sample(61.0);    // skipped
  recorder.sample(119.99);  // skipped
  recorder.sample(120.0);   // due
  counter.inc(4);
  recorder.force_sample(130.0);  // epilogue: unconditional
  EXPECT_EQ(recorder.sample_count(), 4u);

  // Sum of per-interval deltas telescopes to last - first, which must equal
  // the increments recorded while the recorder was live.
  EXPECT_EQ(recorder.counter_delta_total("test.timeseries.calls"), 13u);
  const std::vector<double> series =
      recorder.series("counter:test.timeseries.calls");
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0], 5.0);
  EXPECT_DOUBLE_EQ(series[1], 12.0);
  EXPECT_DOUBLE_EQ(series[2], 14.0);
  EXPECT_DOUBLE_EQ(series[3], 18.0);
  // The last sample reproduces the registry's current totals exactly.
  EXPECT_DOUBLE_EQ(series.back(), static_cast<double>(counter.value()));
}

TEST(ObsTimeSeriesTest, CsvExportReproducesRegistryCounterTotals) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& counter = registry.counter("test.timeseries.csv_counter");
  registry.gauge("test.timeseries.csv_gauge").set(3.5);
  registry.histogram("test.timeseries.csv_hist").record(0.5);

  TimeSeriesRecorder recorder(&registry, {.period_s = 60.0});
  recorder.sample(0.0);
  for (int step = 1; step <= 5; ++step) {
    counter.inc(static_cast<std::uint64_t>(step));
    recorder.sample(60.0 * step);
  }

  std::ostringstream csv;
  recorder.write_csv(csv);
  const std::vector<std::vector<std::string>> rows = parse_csv(csv.str());
  ASSERT_EQ(rows.size(), 1u + 6u);  // header + samples
  const std::vector<std::string>& header = rows.front();
  EXPECT_EQ(header.front(), "t_s");
  std::size_t col = 0;
  bool found = false, saw_gauge = false, saw_p99 = false;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "counter:test.timeseries.csv_counter") {
      col = i;
      found = true;
    }
    if (header[i] == "gauge:test.timeseries.csv_gauge") saw_gauge = true;
    if (header[i] == "histogram:test.timeseries.csv_hist:p99") saw_p99 = true;
  }
  ASSERT_TRUE(found);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_p99);

  // Counter columns are cumulative and monotone; the sum of the per-row
  // deltas equals the final registry snapshot value.
  double prev = 0.0, delta_sum = 0.0;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const double value = std::stod(rows[r][col]);
    EXPECT_GE(value, prev);
    if (r > 1) delta_sum += value - prev;
    prev = value;
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(prev,
                   static_cast<double>(snap.counter_value(
                       "test.timeseries.csv_counter")));
  EXPECT_DOUBLE_EQ(delta_sum, 1.0 + 2.0 + 3.0 + 4.0 + 5.0);
}

TEST(ObsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& a = registry.counter("test.registry.shared");
  Counter& b = registry.counter("test.registry.shared");
  EXPECT_EQ(&a, &b);
  Histogram& h = registry.histogram("test.registry.hist");
  EXPECT_EQ(&h, &registry.histogram("test.registry.hist"));
}

TEST(ObsTimerTest, ScopedTimerRecordsOneSample) {
  Histogram histogram;
  const std::uint64_t before = histogram.collect().count;
  {
    ScopedTimer timer(histogram);
  }
  ScopedTimer explicit_stop(histogram);
  const double elapsed = explicit_stop.stop();
  EXPECT_GE(elapsed, 0.0);
  const HistogramData data = histogram.collect();
  EXPECT_EQ(data.count, before + 2);
  EXPECT_LT(data.max, 10.0);  // a timer span is never remotely 10 s here
}

TEST(ObsSnapshotTest, DiffSubtractsCountersAndHistogramBuckets) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& counter = registry.counter("test.snapshot.counter");
  Histogram& histogram = registry.histogram("test.snapshot.hist");
  counter.inc(5);
  histogram.record(0.5);
  const MetricsSnapshot before = registry.snapshot();
  counter.inc(3);
  histogram.record(0.25);
  histogram.record(0.75);
  const MetricsSnapshot after = registry.snapshot();

  const MetricsSnapshot delta = snapshot_diff(before, after);
  EXPECT_EQ(delta.counter_value("test.snapshot.counter"), 3u);
  const HistogramSample* h = delta.find_histogram("test.snapshot.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data.count, 2u);
  EXPECT_NEAR(h->data.sum, 1.0, 1e-9);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h->data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 2u);
}

TEST(ObsSnapshotTest, JsonExportRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.counter("test.export.counter").inc(7);
  registry.gauge("test.export.gauge").set(2.5);
  registry.histogram("test.export.hist").record(0.125);
  const MetricsSnapshot snap = registry.snapshot();

  std::ostringstream json;
  snap.write_json(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  EXPECT_NE(text.find("\"test.export.counter\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  const check::Json parsed = check::Json::parse(text);
  EXPECT_EQ(parsed.get("counters").get("test.export.counter").as_u64(), 7u);
  EXPECT_EQ(parsed.get("gauges").get("test.export.gauge").as_number(), 2.5);
  const check::Json& hist = parsed.get("histograms").get("test.export.hist");
  EXPECT_GE(hist.get("count").as_u64(), 1u);
  EXPECT_NE(hist.find("p99"), nullptr);
}

// Every obs JSON writer escapes names the way check/json does: a quote, a
// backslash, a newline and a raw control byte all survive a parse.
TEST(ObsJsonTest, WritersEscapeEveryNameTheyEmit) {
  const std::string name = "odd\"name\\with\nnewline\x01" "end";
  MetricsRegistry registry;
  registry.counter(name).inc(3);

  std::ostringstream snapshot_json;
  registry.snapshot().write_json(snapshot_json);
  const check::Json snap = check::Json::parse(snapshot_json.str());
  EXPECT_EQ(snap.get("counters").get(name).as_u64(), 3u);

  SpanData span;
  span.name = name.c_str();
  span.wall_end_ns = 1000;
  std::ostringstream trace_json;
  write_chrome_trace(trace_json, {span});
  const check::Json trace = check::Json::parse(trace_json.str());
  const check::Json::Array& events = trace.get("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().get("name").as_string(), name);
}

#else  // !SB_METRICS_ENABLED

TEST(ObsNoopTest, EverythingCompilesToNoops) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& counter = registry.counter("noop.counter");
  counter.inc(100);
  EXPECT_EQ(counter.value(), 0u);
  Gauge& gauge = registry.gauge("noop.gauge");
  gauge.set(5.0);
  EXPECT_EQ(gauge.value(), 0.0);
  Histogram& histogram = registry.histogram("noop.hist");
  histogram.record(1.0);
  {
    ScopedTimer timer(histogram);
  }
  EXPECT_EQ(histogram.collect().count, 0u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.empty());
  std::ostringstream json;
  snap.write_json(json);
  EXPECT_FALSE(json.str().empty());  // the empty sections still print
}

#endif  // SB_METRICS_ENABLED

}  // namespace
}  // namespace sb::obs
