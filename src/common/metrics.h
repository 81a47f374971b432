#ifndef PTLDB_COMMON_METRICS_H_
#define PTLDB_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"

namespace ptldb {

/// Unified metrics layer: named counters, gauges and log-bucketed latency
/// histograms collected in a thread-safe registry, plus the per-thread
/// execution counters that give queries exact operation-level accounting
/// (the measurements behind the paper's Figures 2-8).
///
/// Naming scheme: dot-separated `component.metric[.unit]`, e.g.
/// `device.read_ns`, `bufferpool.misses`, `query.v2v_ea.latency_ns`.
/// Exporters sanitize names for their format (Prometheus: dots become
/// underscores and a `ptldb_` prefix is added).

/// Monotonic counter, sharded across cache lines so concurrent increments
/// from many threads do not bounce one hot line. Increments are relaxed
/// atomics: exact totals, no ordering guarantees with other memory.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kNumShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  /// Stable per-thread shard choice (hashed thread identity).
  static size_t ShardIndex();

  Shard shards_[kNumShards];
};

/// Last-write-wins instantaneous value (queue depths, resident pages).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  void Max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Percentile summary of a Histogram at snapshot time. Quantiles are
/// interpolated within the matched log bucket, so their relative error is
/// bounded by the bucket resolution (about 1/8 of the value).
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Log-bucketed latency histogram: 8 sub-buckets per power of two
/// (values below 8 are exact), covering the full uint64 range. Recording
/// is one relaxed atomic increment; percentiles are computed on snapshot.
class Histogram {
 public:
  void Record(uint64_t value);
  HistogramSummary Summary() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

  /// Bucket index of a value (exposed for tests).
  static size_t BucketOf(uint64_t value);
  /// Inclusive lower / exclusive upper bound of a bucket.
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketHigh(size_t bucket);

  static constexpr size_t kNumBuckets = 64 * 8;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Point-in-time copy of every metric in a registry. Plain data: safe to
/// keep, diff, or serialize after the registry has moved on (snapshot
/// isolation — later increments do not alter an existing snapshot).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Prometheus text exposition format (`ptldb_` prefix, dots -> underscores,
  /// histograms as summaries with quantile labels). Names whose middle
  /// segment is a recognized dimension are emitted as real Prometheus
  /// labels instead of being mangled into the metric name:
  ///   query.v2v_ea.count        -> ptldb_query_count{query_type="v2v_ea"}
  ///   server.latency.expensive_ns
  ///                             -> ptldb_server_latency_ns{class="expensive"}
  ///   phase.merge.io_ns         -> ptldb_phase_io_ns{phase="merge"}
  ///   querylog.outcome.shed     -> ptldb_querylog_outcome{outcome="shed"}
  ///   traces.retained.sampled   -> ptldb_traces_retained{reason="sampled"}
  /// Label values are escaped per the exposition format (backslash,
  /// quote, newline). Series of one family are emitted as one group
  /// under a single # TYPE line, as the format requires.
  std::string ToPrometheusText() const;
  /// Nested JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, p50, p95, p99}}}.
  std::string ToJson() const;
};

/// Thread-safe registry of named metrics. Lookup-or-create is mutex
/// protected (cold path); the returned pointers are stable for the
/// registry's lifetime, so hot paths hold them and never re-look-up.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (benchmark phase boundaries).
  void ResetAll();
  /// Zeroes every counter and histogram whose name starts with `prefix`
  /// (e.g. "server." / "ttl.labels."), so callers can carve per-window
  /// deltas out of process-lifetime totals the way ResetIoStats() does
  /// for the device. Gauges are deliberately excluded: they are
  /// instantaneous readings (resident bytes, queue depth), not
  /// accumulations, and zeroing them would fabricate state.
  void ResetPrefix(const std::string& prefix);

 private:
  /// Registry latch (cold path only): guards the name->metric maps. The
  /// metric objects themselves are lock-free; returned pointers outlive
  /// the latch by design.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PTLDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ PTLDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PTLDB_GUARDED_BY(mu_);
};

/// Per-thread execution counters incremented by the storage engine, the
/// query executors and the TTL label-merge code. Plain (non-atomic)
/// fields: each thread only ever touches its own instance, so increments
/// are free of both races and atomic traffic. A query runs on one thread,
/// so the delta of these counters around a query is its exact operation
/// count; the facade and the SQL interpreter flush such deltas into their
/// database's MetricsRegistry after every query.
struct LocalQueryCounters {
  uint64_t tuples_scanned = 0;     ///< Heap tuples materialized.
  uint64_t index_seeks = 0;        ///< B-tree descents (Get / Seek).
  uint64_t rows_emitted = 0;       ///< Result rows emitted.
  uint64_t hubs_merged = 0;        ///< Common-hub groups visited in merges.
  uint64_t label_comparisons = 0;  ///< Label tuple comparisons in merges.
  uint64_t label_decodes = 0;      ///< Compressed label buckets decoded.
  uint64_t label_decode_bytes = 0;  ///< Encoded bytes those decodes read.
  /// Compiled-query VM work units: one per instruction dispatch, per
  /// bucket probe and per candidate tuple examined in the fused scan
  /// macro-ops (see engine/vm.h). Zero on the SQL interpreter's path, so
  /// a nonzero delta proves a query really ran compiled.
  uint64_t vm_steps = 0;
  /// Modeled device I/O ns charged to this thread (page transfers plus
  /// retry-backoff waits). Mirrors the StorageDevice global atomics, but
  /// per-thread, so a query's I/O attribution stays exact under
  /// concurrency.
  uint64_t modeled_io_ns = 0;

  LocalQueryCounters operator-(const LocalQueryCounters& o) const {
    return {tuples_scanned - o.tuples_scanned, index_seeks - o.index_seeks,
            rows_emitted - o.rows_emitted, hubs_merged - o.hubs_merged,
            label_comparisons - o.label_comparisons,
            label_decodes - o.label_decodes,
            label_decode_bytes - o.label_decode_bytes,
            vm_steps - o.vm_steps,
            modeled_io_ns - o.modeled_io_ns};
  }
};

/// The calling thread's counters.
LocalQueryCounters& ThisThreadQueryCounters();

}  // namespace ptldb

#endif  // PTLDB_COMMON_METRICS_H_
