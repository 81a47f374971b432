// Set-up, request generation and the timed windows of the three workloads.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "engine/page.h"
#include "perfbench.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace perfbench {

using ptldb::PtldbDatabase;
using ptldb::PtldbServer;
using ptldb::QueryResponse;

namespace {

/// Samples a class needs so that at least ten lie beyond its tail
/// percentile (TailQuantile).
size_t MinSamples(size_t c) {
  return static_cast<size_t>(
      std::lround(10.0 / (1.0 - TailQuantile(static_cast<QueryClass>(c)))));
}
/// Both request lists repeat, so a class's p99 is only as steady as the
/// number of distinct queries behind it: each list holds at least 1,000
/// distinct kNN and 1,000 distinct one-to-many queries.
/// ssd_small_pool: queries of each type per round.
constexpr size_t kSsdPerType = 1000;
/// served_*: requests in the cycled list, ~1,600 of them kNN and ~1,600
/// one-to-many. The warm-up pass runs each once, so the timed window
/// touches no page the pass did not.
constexpr size_t kServedListSize = 65536;

constexpr QueryType kAllTypes[] = {
    QueryType::kV2vEa, QueryType::kV2vLd, QueryType::kV2vSd,
    QueryType::kEaKnn, QueryType::kLdKnn, QueryType::kEaOtm,
    QueryType::kLdOtm};

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kSsdSmallPool, Workload::kServedRaw,
                     Workload::kServedCompressed}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSsdSmallPool:
      return "ssd_small_pool";
    case Workload::kServedRaw:
      return "served_raw";
    case Workload::kServedCompressed:
      return "served_compressed";
  }
  return "?";
}

QueryClass ClassOf(QueryType type) {
  switch (type) {
    case QueryType::kV2vEa:
    case QueryType::kV2vLd:
    case QueryType::kV2vSd:
      return QueryClass::kV2v;
    case QueryType::kEaKnn:
    case QueryType::kLdKnn:
      return QueryClass::kKnn;
    case QueryType::kEaOtm:
    case QueryType::kLdOtm:
      return QueryClass::kOtm;
  }
  return QueryClass::kV2v;
}

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kV2v:
      return "v2v";
    case QueryClass::kKnn:
      return "knn";
    case QueryClass::kOtm:
      return "otm";
  }
  return "?";
}

std::string Describe(const Request& r) {
  std::string out = std::string(ptldb::QueryTypeName(r.type)) +
                    " s=" + std::to_string(r.s);
  if (ClassOf(r.type) == QueryClass::kV2v) out += " g=" + std::to_string(r.g);
  out += " t=" + std::to_string(r.t.raw_seconds());
  if (r.type == QueryType::kV2vSd) {
    out += " t_end=" + std::to_string(r.t_end.raw_seconds());
  }
  if (ClassOf(r.type) == QueryClass::kKnn) out += " k=" + std::to_string(kK);
  return out;
}

Answer CallFacade(PtldbDatabase* db, const Request& r) {
  Answer a;
  const auto take_time = [&](ptldb::Result<EventTime> res) {
    if (res.ok()) a.time = *res; else a.status = res.status();
  };
  const auto take_list =
      [&](ptldb::Result<std::vector<StopTimeResult>> res) {
        if (res.ok()) a.results = std::move(*res); else a.status = res.status();
      };
  switch (r.type) {
    case QueryType::kV2vEa:
      take_time(db->EarliestArrival(r.s, r.g, r.t));
      break;
    case QueryType::kV2vLd:
      take_time(db->LatestDeparture(r.s, r.g, r.t));
      break;
    case QueryType::kV2vSd: {
      auto res = db->ShortestDuration(r.s, r.g, r.t, r.t_end);
      if (res.ok()) a.duration = *res; else a.status = res.status();
      break;
    }
    case QueryType::kEaKnn:
      take_list(db->EaKnn(kTargetSet, r.s, r.t, kK));
      break;
    case QueryType::kLdKnn:
      take_list(db->LdKnn(kTargetSet, r.s, r.t, kK));
      break;
    case QueryType::kEaOtm:
      take_list(db->EaOneToMany(kTargetSet, r.s, r.t));
      break;
    case QueryType::kLdOtm:
      take_list(db->LdOneToMany(kTargetSet, r.s, r.t));
      break;
  }
  return a;
}

ptldb::QueryRequest ToServerRequest(const Request& r) {
  ptldb::QueryRequest q;
  q.type = r.type;
  q.s = r.s;
  q.g = r.g;
  q.t = r.t;
  q.t_end = r.t_end;
  if (ClassOf(r.type) != QueryClass::kV2v) q.set_name = std::string(kTargetSet);
  if (ClassOf(r.type) == QueryClass::kKnn) q.k = kK;
  return q;
}

Answer FromServerResponse(QueryResponse resp) {
  Answer a;
  a.status = std::move(resp.status);
  a.time = resp.time;
  a.duration = resp.duration;
  a.results = std::move(resp.results);
  return a;
}

ptldb::Result<Dataset> SetUp(Workload w) {
  const ptldb::CityProfile* profile = ptldb::FindCityProfile(kCity);
  if (profile == nullptr) return ptldb::Status::NotFound(kCity);
  Dataset d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition first, so peak memory is one set-up's.
    d.db.reset();
    d.index.reset();
    d.tt.reset();
    SetupTimes times;
    auto t0 = Clock::now();
    auto tt = ptldb::GenerateNetwork(ptldb::CityOptions(*profile, kScale, kDatasetSeed));
    if (!tt.ok()) return tt.status();
    d.tt = std::make_unique<ptldb::Timetable>(std::move(*tt));
    times.generate_s = SecondsSince(t0);

    t0 = Clock::now();
    ptldb::TtlBuildOptions ttl_options;
    ttl_options.num_threads = 1;  // Serial: the steadiest set-up time.
    auto index = ptldb::BuildTtlIndex(*d.tt, ttl_options);
    if (!index.ok()) return index.status();
    d.index = std::make_unique<ptldb::TtlIndex>(std::move(*index));
    times.ttl_build_s = SecondsSince(t0);

    t0 = Clock::now();
    ptldb::PtldbOptions options;
    options.device = ptldb::DeviceProfile::SataSsd();
    options.num_threads = 1;
    options.compressed_labels = w == Workload::kServedCompressed;
    // ssd_small_pool sizes its pool from the table pages the first
    // repetition measured; the served workloads keep the default pool,
    // which holds every page.
    if (w == Workload::kSsdSmallPool && d.pool_pages != 0) {
      options.buffer_pool_pages = d.pool_pages;
    }
    auto db = PtldbDatabase::Build(*d.index, options);
    if (!db.ok()) return db.status();
    d.db = std::move(*db);
    times.db_build_s = SecondsSince(t0);

    t0 = Clock::now();
    const uint32_t n = d.tt->num_stops();
    const auto num_targets = std::max<uint32_t>(
        kK, static_cast<uint32_t>(std::lround(n * kTargetDensity)));
    ptldb::Rng target_rng(kDatasetSeed * 0x9E3779B97F4A7C15ull + 17);
    d.targets = target_rng.SampleDistinct(n, num_targets);
    std::sort(d.targets.begin(), d.targets.end());
    PTLDB_RETURN_IF_ERROR(
        d.db->AddTargetSet(kTargetSet, *d.index, d.targets, kK));
    times.target_set_s = SecondsSince(t0);
    d.reps.push_back(times);

    d.table_pages = d.db->size_bytes() / ptldb::kPageSize;
    if (w == Workload::kSsdSmallPool && d.pool_pages == 0) {
      d.pool_pages = static_cast<uint64_t>(
          std::ceil(static_cast<double>(d.table_pages) * kSmallPoolShare));
    }
  }
  if (w != Workload::kSsdSmallPool) {
    d.pool_pages = ptldb::PtldbOptions{}.buffer_pool_pages;
  }
  return d;
}

EventTime RequestGenerator::Early() {
  const int64_t span = (tt_->max_time() - tt_->min_time()).raw_seconds();
  return tt_->min_time() +
         Duration::FromSeconds(static_cast<int64_t>(
             rng_.NextBelow(static_cast<uint64_t>(span / 4) + 1)));
}

EventTime RequestGenerator::Late() {
  const int64_t span = (tt_->max_time() - tt_->min_time()).raw_seconds();
  return tt_->max_time() -
         Duration::FromSeconds(static_cast<int64_t>(
             rng_.NextBelow(static_cast<uint64_t>(span / 4) + 1)));
}

StopId RequestGenerator::Stop() {
  return static_cast<StopId>(rng_.NextBelow(tt_->num_stops()));
}

Request RequestGenerator::Make(QueryType type) {
  Request r;
  r.type = type;
  r.s = Stop();
  if (ClassOf(type) == QueryClass::kV2v) {
    do {
      r.g = Stop();
    } while (r.g == r.s);
  }
  switch (type) {
    case QueryType::kV2vLd:
    case QueryType::kLdKnn:
    case QueryType::kLdOtm:
      r.t = Late();
      break;
    case QueryType::kV2vSd:
      r.t = Early();
      r.t_end = Late();
      break;
    default:
      r.t = Early();
      break;
  }
  return r;
}

std::vector<Request> RequestGenerator::PaperMix(size_t per_type) {
  std::vector<Request> out;
  for (size_t i = 0; i < per_type; ++i) {
    for (QueryType type : kAllTypes) out.push_back(Make(type));
  }
  return out;
}

std::vector<Request> RequestGenerator::ServedMix(size_t n) {
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // 95% v2v split evenly over EA/LD/SD, 5% over the four set queries.
    const uint64_t roll = rng_.NextBelow(1200);
    QueryType type;
    if (roll < 1140) {
      type = kAllTypes[roll % 3];
    } else {
      type = kAllTypes[3 + (roll - 1140) % 4];
    }
    out.push_back(Make(type));
  }
  return out;
}

namespace {

bool EnoughSamples(const WindowResult& w) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (w.latency_ns[c].size() < MinSamples(c)) return false;
  }
  return true;
}

}  // namespace

WindowResult RunSsdWindow(Dataset* data, Checker* checker, uint64_t seed,
                          double seconds) {
  WindowResult w;
  RequestGenerator gen(data->tt.get(), seed);
  w.requests = gen.PaperMix(kSsdPerType);
  PtldbDatabase* db = data->db.get();
  w.before = db->Snapshot();
  uint64_t modeled_ns = 0;
  const auto start = Clock::now();
  do {
    const auto round_start = Clock::now();
    const uint64_t round_modeled_ns = modeled_ns;
    // Every round starts from dropped caches, so every round charges the
    // same misses and the same modelled time.
    if (const ptldb::Status s = db->DropCaches(); !s.ok()) {
      std::fprintf(stderr, "[perfbench] DropCaches: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
    for (const Request& r : w.requests) {
      const uint64_t io0 = db->io_time_ns();
      const auto t0 = Clock::now();
      const Answer a = CallFacade(db, r);
      const uint64_t wall = NsBetween(t0, Clock::now());
      const uint64_t io = db->io_time_ns() - io0;
      modeled_ns += io;
      w.latency_ns[static_cast<size_t>(ClassOf(r.type))].push_back(wall + io);
      ++w.answered;
      checker->Record(r, checker->Properties(r, a));
    }
    w.subwindow_qps.push_back(
        static_cast<double>(w.requests.size()) /
        (SecondsSince(round_start) +
         static_cast<double>(modeled_ns - round_modeled_ns) / 1e9));
  } while (SecondsSince(start) < seconds || !EnoughSamples(w));
  w.window_s = SecondsSince(start) + static_cast<double>(modeled_ns) / 1e9;
  w.after = db->Snapshot();
  w.attempted = w.answered;
  return w;
}

ptldb::ServerOptions ServedOptions() {
  ptldb::ServerOptions o;
  const unsigned hw = std::thread::hardware_concurrency();
  o.num_workers = hw > 1 ? hw - 1 : 1;
  o.queue_capacity = 1024;
  o.default_deadline = std::chrono::nanoseconds(0);
  o.interactive_slo = std::chrono::nanoseconds(0);  // No latency shedding.
  return o;
}

namespace {

/// Closed-loop client state, shared with the completion callbacks (which
/// run on server workers) and kept alive by them until the last one ends.
struct LoopState {
  std::mutex mu;
  std::condition_variable cv;
  uint32_t in_flight = 0;
  bool timed = false;
  WindowResult* window = nullptr;
  Checker* checker = nullptr;
  Clock::time_point last_answer;
};

/// Keeps `limit` requests in flight, cycling through `requests` from
/// `*next`, until `stop()` is true; then waits for every answer.
template <typename StopFn>
void ClosedLoop(PtldbServer* server, const std::vector<Request>& requests,
                size_t* next, uint32_t limit,
                const std::shared_ptr<LoopState>& st, StopFn&& stop) {
  uint64_t issued = 0;
  while (!stop(issued)) {
    {
      std::unique_lock<std::mutex> lock(st->mu);
      st->cv.wait(lock, [&] { return st->in_flight < limit; });
      ++st->in_flight;
    }
    const Request* r = &requests[(*next)++ % requests.size()];
    ++issued;
    const auto t0 = Clock::now();
    server->Submit(ToServerRequest(*r), [st, r, t0](QueryResponse resp) {
      const auto t1 = Clock::now();
      const Answer a = FromServerResponse(std::move(resp));
      const std::string problem = st->checker->Properties(*r, a);
      {
        std::lock_guard<std::mutex> lock(st->mu);
        if (st->timed) {
          st->window->latency_ns[static_cast<size_t>(ClassOf(r->type))]
              .push_back(NsBetween(t0, t1));
          ++st->window->answered;
          st->last_answer = std::max(st->last_answer, t1);
        }
        st->checker->Record(*r, problem);
        --st->in_flight;
      }
      // Notified after unlocking, so the woken client does not block on
      // the mutex this callback still holds.
      st->cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(st->mu);
  st->cv.wait(lock, [&] { return st->in_flight == 0; });
}

}  // namespace

WindowResult RunServedWindow(Dataset* data, PtldbServer* server,
                             Checker* checker, uint64_t seed,
                             double seconds) {
  WindowResult w;
  RequestGenerator gen(data->tt.get(), seed);
  w.requests = gen.ServedMix(kServedListSize);
  const uint32_t limit = 2 * server->num_workers();
  auto st = std::make_shared<LoopState>();
  st->window = &w;
  st->checker = checker;
  size_t next = 0;
  // Warm-up: every request of the list once, untimed.
  ClosedLoop(server, w.requests, &next, limit, st,
             [&](uint64_t issued) { return issued >= w.requests.size(); });
  server->ResetStats();
  w.before = data->db->Snapshot();
  {
    std::lock_guard<std::mutex> lock(st->mu);
    st->timed = true;
  }
  const auto start = Clock::now();
  st->last_answer = start;
  auto mark = start;
  uint64_t mark_answered = 0;
  ClosedLoop(server, w.requests, &next, limit, st, [&](uint64_t issued) {
    if (issued % 256 != 0) return false;
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(st->mu);
    const double since_mark = std::chrono::duration<double>(now - mark).count();
    if (since_mark >= 0.5) {
      w.subwindow_qps.push_back(
          static_cast<double>(w.answered - mark_answered) / since_mark);
      mark = now;
      mark_answered = w.answered;
    }
    return SecondsSince(start) >= seconds && EnoughSamples(w);
  });
  w.window_s = std::chrono::duration<double>(st->last_answer - start).count();
  w.after = data->db->Snapshot();
  w.attempted = next;
  return w;
}

namespace {

/// Submit, then wait for the callback.
Answer SubmitAndWait(PtldbServer* server, const Request& r) {
  auto st = std::make_shared<LoopState>();
  Answer out;
  bool done = false;
  server->Submit(ToServerRequest(r), [st, &out, &done](QueryResponse resp) {
    Answer a = FromServerResponse(std::move(resp));
    std::lock_guard<std::mutex> lock(st->mu);
    out = std::move(a);
    done = true;
    st->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(st->mu);
  st->cv.wait(lock, [&] { return done; });
  return out;
}

}  // namespace

Answer Answered(PtldbDatabase* db, PtldbServer* server, const Request& r) {
  return server != nullptr ? SubmitAndWait(server, r) : CallFacade(db, r);
}

std::vector<std::pair<Request, Answer>> CheckOracleSample(
    Dataset* data, PtldbServer* server, Checker* checker, uint64_t seed,
    size_t per_type, uint64_t* attempted) {
  RequestGenerator gen(data->tt.get(), seed ^ 0x0A11CE5EEDull);
  std::vector<std::pair<Request, Answer>> out;
  for (QueryType type : kAllTypes) {
    for (size_t i = 0; i < per_type; ++i) {
      const Request r = gen.Make(type);
      Answer a = Answered(data->db.get(), server, r);
      ++*attempted;
      checker->Record(r, checker->AgainstOracle(r, a));
      if (ClassOf(type) == QueryClass::kKnn) {
        Request otm = r;
        otm.type = type == QueryType::kEaKnn ? QueryType::kEaOtm
                                             : QueryType::kLdOtm;
        const Answer b = Answered(data->db.get(), server, otm);
        ++*attempted;
        checker->Record(r, checker->KnnPrefixOfOtm(a, b));
      }
      out.emplace_back(r, std::move(a));
    }
  }
  return out;
}

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace perfbench
