// Microbenchmarks (google-benchmark) for the core primitives: B+Tree
// lookups, label-row fetches, the v2v merge join, in-memory TTL queries and
// the Connection Scan baseline. These calibrate where the CPU time in the
// paper-level figures is spent.
//
// With `--json PATH` the google-benchmark harness is bypassed: a tiny
// generator city runs one manually-timed pass over every phase (generate,
// TTL build, table build, target set, cold/warm v2v, kNN, one-to-many) and
// the run record — per-phase latencies plus the engine's full metrics
// snapshot — is written to PATH. CI validates that record's schema and
// that the tracked engine counters actually moved.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "baseline/csa.h"
#include "baseline/profile.h"
#include "bench_common.h"
#include "common/rng.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"
#include "ttl/query.h"

// ---- Allocation probe ----------------------------------------------------
// The binary's operator new/delete are replaced with counting versions so
// the --json mode can prove the warm compiled-VM query path honors the
// arena contract (DESIGN.md §13): zero heap allocations per warm v2v
// query, and for kNN only the materialized result vector. Storage still
// comes from malloc, so google-benchmark and the fixtures behave normally;
// the counter is thread-local and the measured sections run on one thread.
namespace {
thread_local uint64_t g_bench_thread_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_bench_thread_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_bench_thread_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ptldb {
namespace {

struct MicroFixture {
  MicroFixture() {
    GeneratorOptions o;
    o.num_stops = 300;
    o.target_connections = 30000;
    o.seed = 42;
    tt = std::move(GenerateNetwork(o)).value();
    index = std::move(BuildTtlIndex(tt)).value();
    PtldbOptions options;
    options.device = DeviceProfile::SataSsd();
    db = std::move(PtldbDatabase::Build(index, options)).value();
    Rng rng(3);
    targets = rng.SampleDistinct(tt.num_stops(), 30);
    (void)db->AddTargetSet("T", index, targets, 16);
  }

  Timetable tt;
  TtlIndex index;
  std::unique_ptr<PtldbDatabase> db;
  std::vector<StopId> targets;
};

MicroFixture& Fixture() {
  static MicroFixture* fixture = new MicroFixture();
  return *fixture;
}

void BM_BTreeFind(benchmark::State& state) {
  auto& f = Fixture();
  const EngineTable* lout = f.db->engine()->FindTable("lout");
  BufferPool* pool = f.db->engine()->buffer_pool();
  Rng rng(1);
  for (auto _ : state) {
    const auto key = static_cast<IndexKey>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(lout->Get(key, pool));
  }
}
BENCHMARK(BM_BTreeFind);

void BM_V2vEaWarmCache(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(2);
  for (auto _ : state) {
    const auto s = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    const auto g = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(f.db->EarliestArrival(s, g, f.tt.min_time()));
  }
}
BENCHMARK(BM_V2vEaWarmCache);

void BM_V2vEaWarmCompressedLabels(benchmark::State& state) {
  auto& f = Fixture();
  static PtldbDatabase* cdb = [&] {
    PtldbOptions options;
    options.device = DeviceProfile::SataSsd();
    options.compressed_labels = true;
    return std::move(PtldbDatabase::Build(f.index, options)).value().release();
  }();
  Rng rng(2);
  for (auto _ : state) {
    const auto s = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    const auto g = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(cdb->EarliestArrival(s, g, f.tt.min_time()));
  }
}
BENCHMARK(BM_V2vEaWarmCompressedLabels);

void BM_TtlEaInMemory(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(3);
  for (auto _ : state) {
    const auto s = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    const auto g = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(
        TtlEarliestArrival(f.index, s, g, f.tt.min_time()));
  }
}
BENCHMARK(BM_TtlEaInMemory);

void BM_EaKnnPlan(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(4);
  const auto k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    const auto q = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(f.db->EaKnn("T", q, f.tt.min_time(), k));
  }
}
BENCHMARK(BM_EaKnnPlan)->Arg(1)->Arg(4)->Arg(16);

void BM_CsaEarliestArrivalScan(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(5);
  for (auto _ : state) {
    const auto s = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(EarliestArrivalScan(f.tt, s, f.tt.min_time()));
  }
}
BENCHMARK(BM_CsaEarliestArrivalScan);

void BM_ForwardProfile(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(6);
  for (auto _ : state) {
    const auto s = static_cast<StopId>(rng.NextBelow(f.tt.num_stops()));
    benchmark::DoNotOptimize(ForwardProfile(f.tt, s));
  }
}
BENCHMARK(BM_ForwardProfile);

void BM_TtlPreprocessing(benchmark::State& state) {
  GeneratorOptions o;
  o.num_stops = 120;
  o.target_connections = 8000;
  o.seed = 7;
  const Timetable tt = std::move(GenerateNetwork(o)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildTtlIndex(tt));
  }
}
BENCHMARK(BM_TtlPreprocessing);

/// Warm multi-threaded v2v throughput: `threads` workers each replay a
/// deterministic per-thread schedule of `per_thread` earliest-arrival
/// queries against the shared (already warm) database. Returns wall
/// seconds for the whole batch; items = threads * per_thread, so
/// qps = items / seconds. Used with threads=1 and threads=N to measure
/// how the sharded buffer pool scales with concurrent readers.
double RunConcurrentV2v(PtldbDatabase* db, const Timetable& tt,
                        uint32_t threads, uint32_t per_thread) {
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t * 2654435761u + 101);
      for (uint32_t i = 0; i < per_thread; ++i) {
        const auto s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
        const auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
        if (!db->EarliestArrival(s, g, tt.min_time()).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (failures.load() != 0) {
    std::fprintf(stderr, "[bench] %llu concurrent queries failed\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  return seconds;
}

/// Builds a phase record with p50/p95/p99 from per-query nanosecond
/// samples. Sorts `ns` in place.
BenchPhase PercentilePhase(const char* name, std::vector<uint64_t>& ns) {
  std::sort(ns.begin(), ns.end());
  uint64_t sum = 0;
  for (const uint64_t v : ns) sum += v;
  const auto pct = [&](double q) {
    const auto idx =
        static_cast<size_t>(q * static_cast<double>(ns.size() - 1) + 0.5);
    return static_cast<double>(ns[std::min(idx, ns.size() - 1)]) / 1e6;
  };
  BenchPhase phase;
  phase.name = name;
  phase.seconds = static_cast<double>(sum) / 1e9;
  phase.items = ns.size();
  phase.ms_per_item =
      static_cast<double>(sum) / 1e6 / static_cast<double>(ns.size());
  phase.has_percentiles = true;
  phase.p50_ms = pct(0.50);
  phase.p95_ms = pct(0.95);
  phase.p99_ms = pct(0.99);
  return phase;
}

/// The --json mode: one manually-timed pass over a tiny generator city.
/// Deterministic fixture (fixed seeds), so the emitted counters are stable
/// enough for CI to assert they are nonzero. With --concurrency N > 1 the
/// record additionally carries a single-thread and an N-thread warm v2v
/// throughput phase (mt_v2v_ea_c1 / mt_v2v_ea_cN) that CI compares.
int RunJsonMode(const std::string& path, uint32_t concurrency) {
  using Clock = std::chrono::steady_clock;
  BenchRunRecord record;
  record.bench = "bench_micro";
  record.git = GitDescribe();
  record.seed = 42;

  const auto timed = [&](const std::string& name, uint64_t items,
                         const std::function<void()>& fn) {
    const auto start = Clock::now();
    fn();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    BenchPhase phase{name, seconds, items,
                     items > 0 ? seconds * 1e3 / static_cast<double>(items)
                               : 0.0};
    record.phases.push_back(phase);
  };

  GeneratorOptions o;
  o.num_stops = 150;
  o.target_connections = 9000;
  o.seed = 42;
  Timetable tt;
  timed("generate", o.num_stops,
        [&] { tt = std::move(GenerateNetwork(o)).value(); });
  TtlIndex index;
  timed("ttl_build", tt.num_stops(),
        [&] { index = std::move(BuildTtlIndex(tt)).value(); });
  std::unique_ptr<PtldbDatabase> db;
  timed("db_build", tt.num_stops(), [&] {
    PtldbOptions options;
    options.device = DeviceProfile::SataSsd();
    db = std::move(PtldbDatabase::Build(index, options)).value();
  });
  Rng rng(3);
  const auto targets = rng.SampleDistinct(tt.num_stops(), 20);
  timed("add_target_set", targets.size(), [&] {
    if (!db->AddTargetSet("T", index, targets, 8).ok()) std::exit(1);
  });

  constexpr uint32_t kQueries = 40;
  Rng qrng(7);
  const auto random_stop = [&] {
    return static_cast<StopId>(qrng.NextBelow(tt.num_stops()));
  };
  // Cold batches reset the pool and device stats (see TimeQueries); the
  // final warm batch leaves everything accumulated for the snapshot.
  const double v2v_cold = TimeQueries(db.get(), kQueries, [&](uint32_t) {
    (void)db->EarliestArrival(random_stop(), random_stop(), tt.min_time());
  });
  record.phases.push_back(
      {"v2v_ea_cold", v2v_cold * kQueries / 1e3, kQueries, v2v_cold});
  const double knn_ms = TimeQueries(db.get(), kQueries, [&](uint32_t) {
    (void)db->EaKnn("T", random_stop(), tt.min_time(), 4);
  });
  record.phases.push_back(
      {"ea_knn_cold", knn_ms * kQueries / 1e3, kQueries, knn_ms});
  const double otm_ms = TimeQueries(db.get(), kQueries, [&](uint32_t) {
    (void)db->EaOneToMany("T", random_stop(), tt.min_time());
  });
  record.phases.push_back(
      {"ea_otm_cold", otm_ms * kQueries / 1e3, kQueries, otm_ms});
  timed("v2v_ea_warm", kQueries, [&] {
    for (uint32_t i = 0; i < kQueries; ++i) {
      (void)db->EarliestArrival(random_stop(), random_stop(), tt.min_time());
    }
  });

  // Paired raw-vs-compressed warm v2v: a second database over the same
  // index with the RAM-resident label tier enabled, measured on an
  // identical query schedule right after the raw warm phase. Both tiers
  // run on the compiled VM. The pair is reported, not gated on time: the
  // checker requires only that the tier actually served (decode counters
  // moved) and its footprint bound.
  std::unique_ptr<PtldbDatabase> cdb;
  timed("db_build_compressed", tt.num_stops(), [&] {
    PtldbOptions options;
    options.device = DeviceProfile::SataSsd();
    options.compressed_labels = true;
    cdb = std::move(PtldbDatabase::Build(index, options)).value();
  });
  constexpr uint64_t kWarmSchedule = 0xb5297a4d5dull;
  const auto warm_pass = [&](PtldbDatabase* target) {
    Rng wrng(kWarmSchedule);
    for (uint32_t i = 0; i < kQueries; ++i) {
      const auto s = static_cast<StopId>(wrng.NextBelow(tt.num_stops()));
      const auto g = static_cast<StopId>(wrng.NextBelow(tt.num_stops()));
      (void)target->EarliestArrival(s, g, tt.min_time());
    }
  };
  warm_pass(db.get());   // Heat the raw caches for the paired measurement.
  warm_pass(cdb.get());  // First pass decodes everything once.
  timed("v2v_ea_warm_raw_paired", kQueries, [&] { warm_pass(db.get()); });
  timed("v2v_ea_warm_compressed", kQueries, [&] { warm_pass(cdb.get()); });

  // Observability overhead: warm v2v with the query log + tail sampler
  // runtime-disabled vs enabled, on the SAME database so every other
  // condition (pool contents, compiled code, device profile) is shared.
  // Each query is timed individually and the two modes run in alternating
  // batches over identical per-mode schedules, so slow drift (frequency
  // scaling, background noise) hits both sides equally; the checker
  // compares the p50s, which batch means cannot provide.
  {
    constexpr uint32_t kObsRounds = 8;
    constexpr uint32_t kObsBatch = 250;
    constexpr uint64_t kObsSchedule = 0x0b5e77ull;
    QueryLog* qlog = db->query_log();
    std::vector<uint64_t> obs_ns[2];
    Rng obs_rng[2] = {Rng(kObsSchedule), Rng(kObsSchedule)};
    for (auto& v : obs_ns) v.reserve(kObsRounds * kObsBatch);
    {
      // Heat the schedule's pages once so neither mode pays first-touch.
      Rng heat(kObsSchedule);
      for (uint32_t i = 0; i < kObsBatch; ++i) {
        const auto s = static_cast<StopId>(heat.NextBelow(tt.num_stops()));
        const auto g = static_cast<StopId>(heat.NextBelow(tt.num_stops()));
        (void)db->EarliestArrival(s, g, tt.min_time());
      }
    }
    for (uint32_t round = 0; round < kObsRounds; ++round) {
      for (const int mode : {0, 1}) {
        qlog->set_enabled(mode == 1);
        for (uint32_t i = 0; i < kObsBatch; ++i) {
          const auto s =
              static_cast<StopId>(obs_rng[mode].NextBelow(tt.num_stops()));
          const auto g =
              static_cast<StopId>(obs_rng[mode].NextBelow(tt.num_stops()));
          const auto start = Clock::now();
          (void)db->EarliestArrival(s, g, tt.min_time());
          obs_ns[mode].push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - start)
                  .count()));
        }
      }
    }
    qlog->set_enabled(true);  // The final snapshot must see the log live.
    const char* names[2] = {"v2v_ea_warm_obs_off", "v2v_ea_warm_obs_on"};
    for (const int mode : {0, 1}) {
      record.phases.push_back(PercentilePhase(names[mode], obs_ns[mode]));
    }
  }

  // Warm VM phases with the allocation probe: per-query p50/p99 over a
  // fixed schedule. The query log is disabled for the window so the probe
  // sees the query path alone: warm v2v must not touch the heap at all,
  // kNN only for the result vector.
  int64_t vm_v2v_allocs = -1;
  int64_t vm_knn_allocs = -1;
  constexpr uint32_t kVmRounds = 8;
  constexpr uint32_t kVmBatch = 250;
  {
    QueryLog* qlog = db->query_log();
    qlog->set_enabled(false);
    const auto measured = [&](const char* name, uint64_t schedule,
                              const std::function<void(Rng&)>& one_query)
        -> int64_t {
      std::vector<uint64_t> ns;
      ns.reserve(kVmRounds * kVmBatch);
      // One batch up front: heats the schedule's pages and grows the VM's
      // thread-local arena and scratch to steady state, so the count
      // below reflects the warm path, not first touch.
      Rng heat(schedule);
      for (uint32_t i = 0; i < kVmBatch; ++i) one_query(heat);
      Rng rng(schedule);
      const uint64_t allocs0 = g_bench_thread_allocs;
      for (uint32_t i = 0; i < kVmRounds * kVmBatch; ++i) {
        const auto start = Clock::now();
        one_query(rng);
        ns.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count()));
      }
      // The ns vector was reserved above, so every count here is the
      // query path's own.
      const uint64_t allocs = g_bench_thread_allocs - allocs0;
      record.phases.push_back(PercentilePhase(name, ns));
      return static_cast<int64_t>(allocs);
    };
    vm_v2v_allocs = measured("v2v_ea_warm_vm", 0x5eedf00dull, [&](Rng& r) {
      const auto s = static_cast<StopId>(r.NextBelow(tt.num_stops()));
      const auto g = static_cast<StopId>(r.NextBelow(tt.num_stops()));
      (void)db->EarliestArrival(s, g, tt.min_time());
    });
    vm_knn_allocs = measured("ea_knn_warm_vm", 0xca11ab1eull, [&](Rng& r) {
      const auto q = static_cast<StopId>(r.NextBelow(tt.num_stops()));
      (void)db->EaKnn("T", q, tt.min_time(), 4);
    });
    qlog->set_enabled(true);
  }

  if (concurrency > 1) {
    // Warm throughput scaling: the same per-thread workload measured with
    // one worker and with `concurrency` workers. On the pre-shard pool a
    // single global latch serialized every fetch, so cN ~= c1; the sharded
    // pool must show real scaling (validated by check_bench_json.py).
    constexpr uint32_t kPerThread = 400;
    const double c1_s = RunConcurrentV2v(db.get(), tt, 1, kPerThread);
    record.phases.push_back({"mt_v2v_ea_c1", c1_s, kPerThread,
                             c1_s * 1e3 / kPerThread});
    const double cn_s = RunConcurrentV2v(db.get(), tt, concurrency,
                                         kPerThread);
    const uint64_t cn_items = static_cast<uint64_t>(concurrency) * kPerThread;
    record.phases.push_back(
        {"mt_v2v_ea_c" + std::to_string(concurrency), cn_s, cn_items,
         cn_s * 1e3 / static_cast<double>(cn_items)});
    std::fprintf(stderr,
                 "[bench] warm v2v throughput: c1 %.0f qps, c%u %.0f qps\n",
                 kPerThread / c1_s, concurrency,
                 static_cast<double>(cn_items) / cn_s);
  }

  record.metrics = db->Snapshot();
  // The label-tier numbers live in the compressed database's registry;
  // graft them into the record (the raw database has them absent/zero).
  const MetricsSnapshot csnap = cdb->Snapshot();
  for (const char* name : {"ttl.labels.decodes", "ttl.labels.decoded_bytes"}) {
    const auto it = csnap.counters.find(name);
    if (it != csnap.counters.end()) record.metrics.counters[name] = it->second;
  }
  for (const char* name :
       {"ttl.labels.bytes_resident", "ttl.labels.bytes_per_label",
        "ttl.labels.count", "ttl.labels.raw_bytes"}) {
    const auto it = csnap.gauges.find(name);
    if (it != csnap.gauges.end()) record.metrics.gauges[name] = it->second;
  }
  // Scaling expectations depend on the machine: a single-core runner can
  // never beat c1, it can only avoid collapsing. The checker reads this.
  record.metrics.gauges["bench.hardware_threads"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  // Allocation-probe totals across the measured warm VM batches (query
  // log off). The checker divides by the query count and enforces the
  // arena contract: v2v exactly zero, kNN at most the result vector.
  record.metrics.gauges["bench.vm_warm_queries"] =
      static_cast<int64_t>(kVmRounds) * kVmBatch;
  record.metrics.gauges["bench.vm_v2v_warm_allocs"] = vm_v2v_allocs;
  record.metrics.gauges["bench.vm_knn_warm_allocs"] = vm_knn_allocs;
  const Status s = WriteBenchJson(record, path);
  if (!s.ok()) {
    std::fprintf(stderr, "--json: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace ptldb

int main(int argc, char** argv) {
  // Peel off --json PATH and --concurrency N before google-benchmark sees
  // the arguments.
  std::string json_path;
  uint32_t concurrency = 1;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--concurrency") == 0 && i + 1 < argc) {
      concurrency = static_cast<uint32_t>(std::atoi(argv[++i]));
      if (concurrency == 0) concurrency = 1;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_path.empty()) return ptldb::RunJsonMode(json_path, concurrency);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
