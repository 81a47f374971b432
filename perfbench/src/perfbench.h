// Shared types of the PTLDB benchmark program (see ../README.md).
//
// The benchmark only calls PTLDB's public entry points: BuildTtlIndex,
// PtldbDatabase::Build / AddTargetSet and the query methods, and
// PtldbServer::Submit. Layer timings come from calls into public layer
// functions (EngineTable::GetInto, LabelStore::Decode, the Code 1 merge
// kernels) and from the program's own counters.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "ptldb/ptldb.h"
#include "server/server.h"
#include "timetable/timetable.h"
#include "ttl/label.h"

namespace perfbench {

using ptldb::Duration;
using ptldb::EventTime;
using ptldb::QueryType;
using ptldb::StopId;
using ptldb::StopTimeResult;
using Clock = std::chrono::steady_clock;

// --- Dataset make-up (README.md, "Dataset") ---------------------------------
inline constexpr char kCity[] = "Budapest";
inline constexpr double kScale = 0.06;
/// Seed of the timetable and of the target set. Fixed, so that --seed
/// varies the queries and not the data they run on: generated cities of
/// one profile differ by up to ~20% in table size and label width, which
/// would swamp every latency bound.
inline constexpr uint64_t kDatasetSeed = 1;
/// Target-set density |T| / |V| (the paper's upper density, D = 0.1).
inline constexpr double kTargetDensity = 0.1;
/// k of every kNN query; the set's kmax is the same (the paper's kmax = 4
/// table instance serves k <= 4).
inline constexpr uint32_t kK = 4;
inline constexpr char kTargetSet[] = "T";
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// ssd_small_pool: pool capacity as a share of the tables' pages.
inline constexpr double kSmallPoolShare = 1.0 / 3.0;

enum class Workload { kSsdSmallPool, kServedRaw, kServedCompressed };
std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

/// The three latency classes the metrics report.
enum class QueryClass { kV2v = 0, kKnn = 1, kOtm = 2 };
inline constexpr size_t kNumClasses = 3;
QueryClass ClassOf(QueryType type);
const char* ClassName(QueryClass c);

/// The tail percentile reported per class: p99.9 for v2v, p99 for kNN and
/// one-to-many. On the served workloads about 1% of v2v requests wait
/// behind a kNN/one-to-many request, so the v2v p99 sits on the edge of
/// that waiting mass and jumped 600-1,770 us between runs of one seed on
/// served_compressed; p99.9 lies inside it. A window holds at least ten
/// samples beyond each class's tail percentile.
inline double TailQuantile(QueryClass c) {
  return c == QueryClass::kV2v ? 0.999 : 0.99;
}

/// One query of a workload, as generated from the seed.
struct Request {
  QueryType type = QueryType::kV2vEa;
  StopId s = 0;  ///< Source (v2v) or query stop (kNN / one-to-many).
  StopId g = 0;  ///< Goal stop (v2v only).
  /// Departure time; for the LD types the arrival deadline (as in
  /// ptldb::QueryRequest).
  EventTime t;
  EventTime t_end;  ///< SD window end.
};
std::string Describe(const Request& r);

/// A query's answer, whichever path produced it.
struct Answer {
  ptldb::Status status = ptldb::Status::Ok();
  EventTime time;                       ///< EA / LD.
  Duration duration;                    ///< SD.
  std::vector<StopTimeResult> results;  ///< kNN / one-to-many.
};

/// Calls the facade method of `r.type` directly.
Answer CallFacade(ptldb::PtldbDatabase* db, const Request& r);
/// The server request for `r`, without a deadline.
ptldb::QueryRequest ToServerRequest(const Request& r);
Answer FromServerResponse(ptldb::QueryResponse resp);
/// Answers `r` through `server` (Submit, then wait for the callback) or,
/// when `server` is null, through the facade.
Answer Answered(ptldb::PtldbDatabase* db, ptldb::PtldbServer* server,
                const Request& r);

// --- Answer checking (checker.cc) -------------------------------------------

/// Checks answers against the method's properties and against the
/// timetable oracles of src/baseline, which never read the labels. Every
/// mismatch counts one failed operation and prints the query to stderr.
class Checker {
 public:
  /// `targets` must be sorted and distinct (the set as registered).
  Checker(const ptldb::Timetable* tt, std::vector<StopId> targets, uint32_t k)
      : tt_(tt), targets_(std::move(targets)), k_(k) {}

  /// Properties every answer must have: EA >= t, LD <= t_end, SD >= 0 or
  /// infinite; kNN at most k entries; kNN / one-to-many entries distinct,
  /// inside T and ordered. Returns an empty string when they hold.
  std::string Properties(const Request& r, const Answer& a) const;
  /// Properties plus equality with the oracle answer.
  std::string AgainstOracle(const Request& r, const Answer& a) const;
  /// kNN must be the first k entries of the one-to-many answer to the same
  /// query (times position by position; tied stops may differ).
  std::string KnnPrefixOfOtm(const Answer& knn_answer,
                             const Answer& otm_answer) const;

  /// Counts `problem` (non-empty = failed) and prints the query.
  void Record(const Request& r, const std::string& problem);
  uint64_t failed() const { return failed_; }
  uint32_t k() const { return k_; }
  const std::vector<StopId>& targets() const { return targets_; }

 private:
  bool InTargets(StopId v) const;

  const ptldb::Timetable* tt_;
  std::vector<StopId> targets_;
  uint32_t k_;
  uint64_t failed_ = 0;
};

/// Feeds the checker perturbed copies of correct answers (an off-by-one
/// time, a target outside T, a (k+1)-long kNN, a misordered list) and
/// returns true when every one is reported as failed. `sample` holds
/// answers that passed the oracle check.
bool CheckerSelfCheck(const Checker& checker,
                      const std::vector<std::pair<Request, Answer>>& sample,
                      uint32_t num_stops);

// --- Set-up and workloads (workloads.cc) ------------------------------------

/// Set-up phase times of one repetition, in seconds.
struct SetupTimes {
  double generate_s = 0;
  double ttl_build_s = 0;
  double db_build_s = 0;
  double target_set_s = 0;
  double total() const {
    return generate_s + ttl_build_s + db_build_s + target_set_s;
  }
};

/// Everything a workload runs against.
struct Dataset {
  std::unique_ptr<ptldb::Timetable> tt;
  std::unique_ptr<ptldb::TtlIndex> index;
  std::unique_ptr<ptldb::PtldbDatabase> db;
  std::vector<StopId> targets;  ///< Sorted, distinct.
  std::vector<SetupTimes> reps;
  uint64_t pool_pages = 0;   ///< Buffer-pool capacity, in pages.
  uint64_t table_pages = 0;  ///< Heap + index pages of every table.
};

/// Generates the timetable, builds the TTL index, the database and the
/// target set, kSetupReps times; keeps the last repetition.
ptldb::Result<Dataset> SetUp(Workload w);

/// Seeded query generation. Start times come from the first quarter of
/// the timetable, LD deadlines and SD window ends from the last quarter
/// (the paper's Section 4 protocol); v2v pairs have s != g.
class RequestGenerator {
 public:
  RequestGenerator(const ptldb::Timetable* tt, uint64_t seed)
      : tt_(tt), rng_(seed) {}
  Request Make(QueryType type);
  /// ssd_small_pool: the seven types in equal shares, interleaved.
  std::vector<Request> PaperMix(size_t per_type);
  /// served_*: each request drawn independently, 95% v2v (EA/LD/SD
  /// equal) and 5% kNN/one-to-many (four types equal).
  std::vector<Request> ServedMix(size_t n);

 private:
  EventTime Early();
  EventTime Late();
  StopId Stop();

  const ptldb::Timetable* tt_;
  ptldb::Rng rng_;
};

/// Latency samples of one timed window, in nanoseconds, per class.
struct WindowResult {
  std::vector<Request> requests;  ///< The workload's request list.
  uint64_t attempted = 0;         ///< Queries issued, warm-up included.
  std::vector<uint64_t> latency_ns[kNumClasses];
  uint64_t answered = 0;        ///< Queries answered in the window.
  double window_s = 0;          ///< Wall (ssd: wall + modelled) seconds.
  /// Answer rate per sub-window: per round on ssd_small_pool, per ~0.5 s
  /// on the served workloads. throughput_qps is their median, which a
  /// short stall of the machine moves less than the window's mean rate.
  std::vector<double> subwindow_qps;
  ptldb::MetricsSnapshot before;  ///< Program counters at window start.
  ptldb::MetricsSnapshot after;   ///< ... and at window end.
};

/// ssd_small_pool: one client calls the facade in whole rounds of the
/// paper mix, each round from dropped caches, until `seconds` have passed
/// and every class has enough samples.
WindowResult RunSsdWindow(Dataset* data, Checker* checker, uint64_t seed,
                          double seconds);

/// served_*: a closed loop against PtldbServer keeping 2x the worker count
/// in flight, timed after a warm-up pass over the request list.
WindowResult RunServedWindow(Dataset* data, ptldb::PtldbServer* server,
                             Checker* checker, uint64_t seed, double seconds);

/// The server options of the served workloads: nproc - 1 workers, a queue
/// far longer than the in-flight count, no deadline, no latency shedding.
ptldb::ServerOptions ServedOptions();

/// Answers a seeded sample of every query type through the workload's path
/// (`server` or, when null, the facade), outside the timed window, and
/// compares each with the oracles; every kNN answer is also compared with
/// the one-to-many answer to the same query. Returns the checked answers.
std::vector<std::pair<Request, Answer>> CheckOracleSample(
    Dataset* data, ptldb::PtldbServer* server, Checker* checker,
    uint64_t seed, size_t per_type, uint64_t* attempted);

// --- Traced run (trace.cc) --------------------------------------------------

/// Metric name -> (value, unit).
using Metrics = std::map<std::string, std::pair<double, const char*>>;

/// Replays a sample of the window's requests (the first of each type)
/// through the layers one by one and adds the per-layer metrics to `m`.
/// Writes the spans to `span_path` when it is non-empty and counts each
/// checked call in `attempted`. `w` supplies the counters read at the
/// untraced window's boundaries. Returns false when the program's
/// query-log attribution disagrees with the spans.
bool TracedReplay(Workload wl, Dataset* data, ptldb::PtldbServer* server,
                  Checker* checker, const WindowResult& w,
                  const std::string& span_path, uint64_t* attempted,
                  Metrics* m);

// --- Small helpers ----------------------------------------------------------

/// Growth of counter `name` from `before` to `after` (0 when absent).
uint64_t CounterDelta(const ptldb::MetricsSnapshot& before,
                      const ptldb::MetricsSnapshot& after,
                      const std::string& name);

/// Nearest-rank percentile (0 < q <= 1) of a sample; 0 when empty.
double Percentile(std::vector<uint64_t> v, double q);
double Median(std::vector<double> v);
double SecondsSince(Clock::time_point t0);
uint64_t NsBetween(Clock::time_point a, Clock::time_point b);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
