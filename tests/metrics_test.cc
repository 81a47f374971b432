// Tests of the observability layer: sharded counters under thread storms,
// histogram percentiles on known distributions, snapshot isolation, the
// exporters, the span tracer, and exact per-type query accounting on the
// facade under concurrent load.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace ptldb {
namespace {

TEST(CounterTest, ConcurrentIncrementsLandExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (uint64_t j = 0; j < kPerThread; ++j) counter.Add(1);
      counter.Add(5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * (kPerThread + 5));
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAddMax) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Max(5);
  EXPECT_EQ(gauge.value(), 7);  // Max never lowers.
  gauge.Max(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(HistogramTest, BucketBoundsArePartition) {
  // Every value lands in a bucket whose [low, high) range contains it.
  const std::vector<uint64_t> probes = {0,    1,    7,         8,
                                        9,    63,   64,        1000,
                                        123456789, UINT64_MAX};
  for (const uint64_t v : probes) {
    const size_t b = Histogram::BucketOf(v);
    EXPECT_GE(v, Histogram::BucketLow(b)) << v;
    EXPECT_LT(b + 1 < Histogram::kNumBuckets ? v : 0,
              Histogram::BucketHigh(b))
        << v;
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  // Values below 8 get their own buckets, so quantiles are exact.
  for (int i = 0; i < 50; ++i) h.Record(2);
  for (int i = 0; i < 50; ++i) h.Record(6);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 50u * 2 + 50u * 6);
  EXPECT_EQ(s.min, 2u);
  EXPECT_EQ(s.max, 6u);
  // Quantiles interpolate within the matched one-wide bucket.
  EXPECT_GE(s.p50, 2.0);
  EXPECT_LT(s.p50, 3.0);
  EXPECT_GE(s.p95, 6.0);
  EXPECT_LE(s.p95, 6.0 + 1e-9);
}

TEST(HistogramTest, PercentilesOnUniformDistribution) {
  Histogram h;
  // Shuffled uniform 1..10000: the interpolated quantiles must sit within
  // one log-bucket (12.5% relative width) of the exact order statistics.
  std::vector<uint64_t> values;
  for (uint64_t v = 1; v <= 10'000; ++v) values.push_back(v);
  Rng rng(7);
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.NextBelow(i)]);
  }
  for (const uint64_t v : values) h.Record(v);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 10'000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 10'000u);
  EXPECT_NEAR(s.p50, 5000.0, 5000.0 * 0.15);
  EXPECT_NEAR(s.p95, 9500.0, 9500.0 * 0.15);
  EXPECT_NEAR(s.p99, 9900.0, 9900.0 * 0.15);
}

TEST(HistogramTest, ConcurrentRecordsLandExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h, i] {
      for (uint64_t j = 0; j < kPerThread; ++j) {
        h.Record(static_cast<uint64_t>(i) * 1000 + (j % 97));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.Summary().count, kThreads * kPerThread);
}

TEST(MetricsRegistryTest, LookupOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("a.b");
  Counter* c2 = registry.counter("a.b");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("a.c"), c1);
  EXPECT_EQ(registry.gauge("g"), registry.gauge("g"));
  EXPECT_EQ(registry.histogram("h"), registry.histogram("h"));
}

TEST(MetricsRegistryTest, SnapshotIsolation) {
  MetricsRegistry registry;
  registry.counter("c")->Add(3);
  registry.gauge("g")->Set(-4);
  registry.histogram("h")->Record(100);
  const MetricsSnapshot snap = registry.Snapshot();
  registry.counter("c")->Add(100);
  registry.gauge("g")->Set(99);
  registry.histogram("h")->Record(1);
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -4);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(registry.Snapshot().counters.at("c"), 103u);
  registry.ResetAll();
  EXPECT_EQ(registry.Snapshot().counters.at("c"), 0u);
  EXPECT_EQ(snap.counters.at("c"), 3u);  // Old snapshot untouched.
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndIncrement) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry] {
      for (int j = 0; j < 1000; ++j) {
        registry.counter("shared")->Add(1);
        registry.counter("name." + std::to_string(j % 5))->Add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shared"), kThreads * 1000u);
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(snap.counters.at("name." + std::to_string(j)),
              kThreads * 200u);
  }
}

TEST(MetricsExportTest, PrometheusText) {
  MetricsRegistry registry;
  registry.counter("device.reads")->Add(7);
  registry.gauge("bufferpool.resident_pages")->Set(12);
  registry.histogram("query.v2v_ea.latency_ns")->Record(1000);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE ptldb_device_reads counter"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_device_reads 7"), std::string::npos);
  EXPECT_NE(text.find("ptldb_bufferpool_resident_pages 12"),
            std::string::npos);
  // Per-type query metrics export as ONE family with a query_type label.
  EXPECT_NE(text.find("ptldb_query_latency_ns"
                      "{query_type=\"v2v_ea\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_query_latency_ns_count"
                      "{query_type=\"v2v_ea\"} 1"),
            std::string::npos);
}

TEST(MetricsExportTest, PrometheusLabelFamilies) {
  MetricsRegistry registry;
  registry.counter("query.v2v_ea.count")->Add(3);
  registry.counter("query.ea_knn.count")->Add(4);
  // `query.degraded.*` is NOT a per-type metric: "degraded" must not be
  // minted as a query_type label value.
  registry.counter("query.degraded.io_error")->Add(1);
  registry.histogram("server.queue_wait.interactive_ns")->Record(50);
  registry.counter("phase.merge.label_decodes")->Add(9);
  registry.histogram("phase.merge.ns")->Record(10);
  registry.counter("querylog.outcome.shed")->Add(2);
  registry.counter("traces.retained.slow")->Add(1);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("ptldb_query_count{query_type=\"v2v_ea\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_query_count{query_type=\"ea_knn\"} 4"),
            std::string::npos);
  // Both series share one family declaration.
  const size_t first = text.find("# TYPE ptldb_query_count counter");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE ptldb_query_count counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_query_degraded_io_error 1"),
            std::string::npos);
  EXPECT_EQ(text.find("query_type=\"degraded\""), std::string::npos);
  EXPECT_NE(
      text.find("ptldb_server_queue_wait_ns_count{class=\"interactive\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("ptldb_phase_label_decodes{phase=\"merge\"} 9"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_phase_ns_count{phase=\"merge\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_querylog_outcome{outcome=\"shed\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_traces_retained{reason=\"slow\"} 1"),
            std::string::npos);
}

TEST(MetricsExportTest, PrometheusLabelEscaping) {
  MetricsRegistry registry;
  // A phase segment is an arbitrary label value; exercise the escapes the
  // exposition format requires: backslash, double quote, newline.
  registry.counter("phase.we\\ird\"x.io_ns")->Add(1);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("ptldb_phase_io_ns{phase=\"we\\\\ird\\\"x\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ResetPrefixZeroesOnlyMatchingCountersAndHists) {
  MetricsRegistry registry;
  registry.counter("server.admitted")->Add(5);
  registry.counter("ttl.labels.decodes")->Add(7);
  registry.histogram("server.latency.interactive_ns")->Record(9);
  registry.gauge("server.queue_depth")->Set(3);
  registry.ResetPrefix("server.");
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("server.admitted"), 0u);
  EXPECT_EQ(snap.counters.at("ttl.labels.decodes"), 7u);
  EXPECT_EQ(snap.histograms.at("server.latency.interactive_ns").count, 0u);
  // Gauges are instantaneous readings; ResetPrefix leaves them alone.
  EXPECT_EQ(snap.gauges.at("server.queue_depth"), 3);
}

TEST(MetricsExportTest, Json) {
  MetricsRegistry registry;
  registry.counter("a.b")->Add(2);
  registry.gauge("g")->Set(-1);
  registry.histogram("h")->Record(5);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.b\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"g\": -1"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(QueryTraceTest, SpanTreeRendersDeterministically) {
  QueryTrace trace;
  trace.Begin("outer");
  trace.AddStat("rows", 3);
  trace.Begin("inner");
  trace.AddStat("hits", 2);
  trace.End();
  trace.End();
  trace.End();  // Close the root.
  EXPECT_EQ(trace.ToString(false),
            "query\n"
            "  outer  rows=3\n"
            "    inner  hits=2\n");
}

TEST(QueryTraceTest, TimingsIncludedWhenRequested) {
  QueryTrace trace;
  {
    TraceSpan span(&trace, "step");
  }
  trace.End();
  const std::string text = trace.ToString(true);
  EXPECT_NE(text.find("step"), std::string::npos);
  EXPECT_NE(text.find("[time="), std::string::npos);
}

TEST(LocalQueryCountersTest, DeltaSubtraction) {
  LocalQueryCounters& mine = ThisThreadQueryCounters();
  const LocalQueryCounters before = mine;
  mine.tuples_scanned += 4;
  mine.label_comparisons += 9;
  const LocalQueryCounters delta = mine - before;
  EXPECT_EQ(delta.tuples_scanned, 4u);
  EXPECT_EQ(delta.index_seeks, 0u);
  EXPECT_EQ(delta.label_comparisons, 9u);
}

// ---------- Facade accounting under concurrency ----------

class FacadeMetricsTest : public testing::Test {
 protected:
  FacadeMetricsTest() {
    GeneratorOptions o;
    o.num_stops = 60;
    o.target_connections = 2500;
    o.seed = 11;
    tt_ = std::move(GenerateNetwork(o)).value();
    index_ = std::move(BuildTtlIndex(tt_)).value();
    PtldbOptions options;
    options.device = DeviceProfile::Ram();
    db_ = std::move(PtldbDatabase::Build(index_, options)).value();
    Rng rng(5);
    targets_ = rng.SampleDistinct(tt_.num_stops(), 8);
    EXPECT_TRUE(db_->AddTargetSet("poi", index_, targets_, 4).ok());
  }

  Timetable tt_;
  TtlIndex index_;
  std::unique_ptr<PtldbDatabase> db_;
  std::vector<StopId> targets_;
};

TEST_F(FacadeMetricsTest, PerTypeCountsAreExactUnderConcurrency) {
  db_->ResetQueryStats();
  constexpr int kThreads = 8;
  constexpr uint32_t kPerThread = 25;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, i] {
      Rng rng(100 + i);
      for (uint32_t j = 0; j < kPerThread; ++j) {
        const auto s = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
        const auto g = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
        const EventTime t = tt_.min_time();
        (void)db_->EarliestArrival(s, g, t);
        (void)db_->LatestDeparture(s, g, tt_.max_time());
        (void)db_->ShortestDuration(s, g, t, tt_.max_time());
        (void)db_->EaKnn("poi", s, t, 2);
        (void)db_->LdKnn("poi", s, tt_.max_time(), 2);
        (void)db_->EaOneToMany("poi", s, t);
        (void)db_->LdOneToMany("poi", s, tt_.max_time());
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = db_->query_stats();
  constexpr uint64_t kExpected = uint64_t{kThreads} * kPerThread;
  for (size_t i = 0; i < kNumQueryTypes; ++i) {
    EXPECT_EQ(stats.by_type[i], kExpected)
        << QueryTypeName(static_cast<QueryType>(i));
  }
  EXPECT_EQ(stats.queries, kExpected * kNumQueryTypes);
  EXPECT_EQ(stats.degraded, 0u);

  // The latency histograms saw every query too.
  const MetricsSnapshot snap = db_->Snapshot();
  for (size_t i = 0; i < kNumQueryTypes; ++i) {
    const std::string name =
        std::string("query.") + QueryTypeName(static_cast<QueryType>(i)) +
        ".latency_ns";
    EXPECT_EQ(snap.histograms.at(name).count, kExpected) << name;
  }
}

TEST_F(FacadeMetricsTest, SnapshotCarriesEngineCounters) {
  // Several pairs so at least one join finds common hubs.
  for (StopId g = 1; g <= 5; ++g) {
    (void)db_->EarliestArrival(0, g, tt_.min_time());
  }
  const MetricsSnapshot snap = db_->Snapshot();
  // Engine overlays: device and buffer pool counters appear by name.
  EXPECT_NE(snap.counters.find("device.reads"), snap.counters.end());
  EXPECT_NE(snap.counters.find("bufferpool.hits"), snap.counters.end());
  EXPECT_NE(snap.gauges.find("bufferpool.resident_pages"),
            snap.gauges.end());
  EXPECT_GT(snap.counters.at("exec.tuples_scanned"), 0u);
  EXPECT_GT(snap.counters.at("ttl.label_comparisons"), 0u);
  EXPECT_GT(snap.counters.at("ttl.hubs_merged"), 0u);
  EXPECT_EQ(snap.counters.at("query.v2v_ea.count"), 5u);
}

TEST_F(FacadeMetricsTest, ResetQueryStatsZeroesPerTypeCounters) {
  (void)db_->EarliestArrival(0, 1, tt_.min_time());
  (void)db_->EaKnn("poi", 0, tt_.min_time(), 1);
  auto stats = db_->query_stats();
  EXPECT_EQ(stats.queries, 2u);
  db_->ResetQueryStats();
  stats = db_->query_stats();
  EXPECT_EQ(stats.queries, 0u);
  for (size_t i = 0; i < kNumQueryTypes; ++i) {
    EXPECT_EQ(stats.by_type[i], 0u);
  }
  EXPECT_EQ(stats.degraded, 0u);
}

TEST_F(FacadeMetricsTest, TraceRecordsSpanPerQuery) {
  QueryTrace trace;
  db_->set_trace(&trace);
  for (StopId g = 3; g <= 7; ++g) {
    (void)db_->EarliestArrival(2, g, tt_.min_time());
  }
  db_->set_trace(nullptr);
  const std::string text = trace.ToString(false);
  EXPECT_NE(text.find("v2v_ea"), std::string::npos);
  EXPECT_NE(text.find("tuples.scanned="), std::string::npos);
  EXPECT_NE(text.find("label.comparisons="), std::string::npos);
  EXPECT_EQ(trace.root().children.size(), 5u);  // One span per query.
}

}  // namespace
}  // namespace ptldb
