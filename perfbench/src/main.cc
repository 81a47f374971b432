// The PTLDB benchmark program. Usually run through ../run.py, which builds it:
//
//   ptldb_perfbench --workload ssd_small_pool|served_raw|served_compressed
//                   --seed N --seconds S --trace 0|1 [--spans PATH]
//                   [--workers N]
//
// --workers overrides the served workloads' worker count (nproc - 1); it
// exists for the README's scaling reference figures and is not part of the
// benchmark's fixed runs.
// Prints progress and diagnostics to stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from the traced replay (spans written to PATH).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

/// Oracle-checked queries of each type per run.
constexpr size_t kOraclePerType = 24;

struct Args {
  Workload workload = Workload::kSsdSmallPool;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  uint32_t workers = 0;  ///< served_*: 0 = ServedOptions() (nproc - 1).
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ssd_small_pool|served_raw|"
               "served_compressed --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--workers N]\n",
               argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) Usage(argv[0]);
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage(argv[0]);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage(argv[0]);
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--workers") {
      args.workers = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
      if (*end != '\0' || args.workers == 0 || args.workers > 256) {
        Usage(argv[0]);
      }
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload) Usage(argv[0]);
  return args;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// The end-to-end metrics of the untraced run.
void EndToEnd(const Dataset& data, const WindowResult& w, Metrics* m) {
  std::vector<double> setup;
  for (const SetupTimes& t : data.reps) setup.push_back(t.total());
  Metrics& out = *m;
  out["setup_s"] = {Median(setup), "s"};
  out["throughput_qps"] = {Median(w.subwindow_qps), "1/s"};
  for (size_t c = 0; c < kNumClasses; ++c) {
    const std::string name = ClassName(static_cast<QueryClass>(c));
    out[name + "_p50_us"] = {Percentile(w.latency_ns[c], 0.50) / 1e3, "us"};
    out[name + (c == 0 ? "_p999_us" : "_p99_us")] = {
        Percentile(w.latency_ns[c], TailQuantile(static_cast<QueryClass>(c))) /
            1e3,
        "us"};
  }
  out["storage_mb"] = {static_cast<double>(data.db->size_bytes()) / 1e6, "MB"};
  out["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

/// The set-up phase medians, reported with the per-layer metrics.
void SetupLayers(const Dataset& data, Metrics* m) {
  std::vector<double> gen, ttl, db, set;
  for (const SetupTimes& t : data.reps) {
    gen.push_back(t.generate_s);
    ttl.push_back(t.ttl_build_s);
    db.push_back(t.db_build_s);
    set.push_back(t.target_set_s);
  }
  Metrics& out = *m;
  out["setup.generate_s"] = {Median(gen), "s"};
  out["setup.ttl_build_s"] = {Median(ttl), "s"};
  out["setup.db_build_s"] = {Median(db), "s"};
  out["setup.target_set_s"] = {Median(set), "s"};
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& m) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : m) {
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + value_unit.second +
            "\"}";
    first = false;
    std::fprintf(stderr, "  %-40s %14.4f %s\n", name.c_str(), v,
                 value_unit.second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Args& args) {
  const char* wname = WorkloadName(args.workload);
  std::fprintf(stderr, "[perfbench] %s seed=%llu: set-up x%d (%s, scale %g)\n",
               wname, static_cast<unsigned long long>(args.seed), kSetupReps,
               kCity, kScale);
  auto setup = SetUp(args.workload);
  if (!setup.ok()) {
    std::fprintf(stderr, "[perfbench] set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  Dataset& data = *setup;
  std::fprintf(stderr,
               "[perfbench] %u stops, %u connections, |T|=%zu, k=%u; "
               "tables %llu pages, pool capacity %llu pages\n",
               data.tt->num_stops(), data.tt->num_connections(),
               data.targets.size(), kK,
               static_cast<unsigned long long>(data.table_pages),
               static_cast<unsigned long long>(data.pool_pages));

  Checker checker(data.tt.get(), data.targets, kK);
  std::unique_ptr<ptldb::PtldbServer> server;
  if (args.workload != Workload::kSsdSmallPool) {
    ptldb::ServerOptions options = ServedOptions();
    if (args.workers != 0) options.num_workers = args.workers;
    server = std::make_unique<ptldb::PtldbServer>(data.db.get(), options);
  }
  const WindowResult w =
      server ? RunServedWindow(&data, server.get(), &checker, args.seed,
                               args.seconds)
             : RunSsdWindow(&data, &checker, args.seed, args.seconds);
  const auto delta = [&](const char* name) {
    return CounterDelta(w.before, w.after, name);
  };
  std::fprintf(stderr,
               "[perfbench] window: %llu queries in %.3f s (v2v %zu, knn %zu, "
               "otm %zu); pool misses %llu, device reads %llu, modelled "
               "%.3f s\n",
               static_cast<unsigned long long>(w.answered), w.window_s,
               w.latency_ns[0].size(), w.latency_ns[1].size(),
               w.latency_ns[2].size(),
               static_cast<unsigned long long>(delta("bufferpool.misses")),
               static_cast<unsigned long long>(delta("device.reads")),
               static_cast<double>(delta("device.read_ns")) / 1e9);

  std::fprintf(stderr, "[perfbench] qps per sub-window:");
  for (double q : w.subwindow_qps) std::fprintf(stderr, " %.0f", q);
  std::fprintf(stderr, "\n");
  uint64_t attempted = w.attempted;
  const auto sample = CheckOracleSample(&data, server.get(), &checker,
                                        args.seed, kOraclePerType, &attempted);
  bool correct =
      CheckerSelfCheck(checker, sample, data.tt->num_stops());

  Metrics m;
  if (args.trace) {
    correct = TracedReplay(args.workload, &data, server.get(), &checker, w,
                           args.spans, &attempted, &m) &&
              correct;
    SetupLayers(data, &m);
  } else {
    EndToEnd(data, w, &m);
  }
  server.reset();  // Joins the workers before the database goes.
  std::fprintf(stderr, "[perfbench] %s: attempted %llu, failed %llu\n", wname,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(checker.failed()));
  PrintResult(correct, attempted, checker.failed(), m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
