// Randomized differential test harness: PTLDB answers vs. timetable-level
// ground truth on many seeded synthetic networks.
//
// For each of the 32 seeds a small random city is generated, a TTL index is
// built (with PTLDB_TEST_THREADS workers — the build is deterministic, see
// ttl_determinism_test), and every one of the seven query types is
// cross-checked against an oracle that never looks at labels:
//   EA / LD / SD        vs. the Connection Scan baselines (baseline/csa.h)
//   EA-kNN / LD-kNN     vs. brute-force enumeration (baseline/brute.h)
//   EA-OTM / LD-OTM     vs. brute-force enumeration
//
// On a mismatch the harness SHRINKS the failing case — greedily dropping
// targets and lowering k while the query still disagrees — and prints one
// "minimal failing repro" line with the (seed, query, args) tuple, so a
// failure report is directly replayable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/rng.h"
#include "paper_sql.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

#include "test_time.h"

namespace ptldb {
namespace {

constexpr uint64_t kNumSeeds = 32;
constexpr uint32_t kMaxK = 8;

// Worker threads used for index and table construction. The CI "Threads"
// job runs the suite with PTLDB_TEST_THREADS=1 and =8; the default of 2
// keeps the pool exercised in ordinary runs.
uint32_t TestThreads() {
  if (const char* env = std::getenv("PTLDB_TEST_THREADS");
      env != nullptr && *env != '\0') {
    return static_cast<uint32_t>(std::atoi(env));
  }
  return 2;
}

// When PTLDB_TEST_COMPRESSED is set (the CI "compressed-labels" job), the
// whole harness runs against the RAM-resident delta+varint label tier
// instead of the raw heap tables — every oracle check doubles as a proof
// that the compressed representation answers identically.
bool TestCompressed() {
  const char* env = std::getenv("PTLDB_TEST_COMPRESSED");
  return env != nullptr && *env != '\0' && *env != '0';
}

struct Network {
  Timetable tt;
  TtlIndex index;
  std::vector<StopId> targets;
  /// Distinct departure/arrival times, for boundary-biased timestamps.
  std::vector<EventTime> events;
};

Network MakeNetwork(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  GeneratorOptions o;
  o.num_stops = static_cast<uint32_t>(rng.NextInRange(24, 64));
  o.target_connections = static_cast<uint64_t>(rng.NextInRange(500, 2000));
  o.min_route_len = 3;
  o.max_route_len = 8;
  o.seed = seed;
  Network net;
  auto tt = GenerateNetwork(o);
  EXPECT_TRUE(tt.ok());
  net.tt = std::move(tt).value();

  TtlBuildOptions build;
  build.num_threads = TestThreads();
  auto index = BuildTtlIndex(net.tt, build);
  EXPECT_TRUE(index.ok());
  net.index = std::move(index).value();

  const auto num_targets =
      static_cast<uint32_t>(rng.NextInRange(4, 8));
  net.targets = rng.SampleDistinct(net.tt.num_stops(), num_targets);
  // Every fourth seed hands AddTargetSet a list with duplicates: target
  // lists have set semantics, so answers must match the deduplicated list
  // (the brute oracles dedup the same way).
  if (seed % 4 == 0) {
    net.targets.push_back(net.targets[0]);
    net.targets.push_back(net.targets[net.targets.size() / 2]);
  }

  for (const Connection& c : net.tt.connections()) {
    net.events.push_back(c.dep);
    net.events.push_back(c.arr);
  }
  std::sort(net.events.begin(), net.events.end());
  net.events.erase(std::unique(net.events.begin(), net.events.end()),
                   net.events.end());
  return net;
}

/// Half the query timestamps land exactly on a departure/arrival event (or
/// one second to either side) instead of uniformly inside the window:
/// exact-equality boundaries in the label binary searches and the bucket
/// tables only get exercised when t collides with an event.
EventTime RandomTime(Rng* rng, const Network& net) {
  if (rng->NextBelow(2) == 0) {
    const EventTime base = net.events[rng->NextBelow(
        static_cast<uint64_t>(net.events.size()))];
    return base + DSec(static_cast<int64_t>(rng->NextBelow(3))) - DSec(1);
  }
  return TSec(rng->NextInRange(net.tt.min_time().raw_seconds(),
                               net.tt.max_time().raw_seconds()));
}

// Fresh in-memory database over `index` with one target set named "t".
std::unique_ptr<PtldbDatabase> MakeDbWith(const TtlIndex& index,
                                          const std::vector<StopId>& targets,
                                          uint32_t kmax, bool compressed) {
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  options.num_threads = TestThreads();
  options.compressed_labels = compressed;
  auto db = PtldbDatabase::Build(index, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->AddTargetSet("t", index, targets, kmax).ok());
  return std::move(db).value();
}

std::unique_ptr<PtldbDatabase> MakeDb(const TtlIndex& index,
                                      const std::vector<StopId>& targets,
                                      uint32_t kmax) {
  return MakeDbWith(index, targets, kmax, TestCompressed());
}

// ---------- Oracles (return a mismatch description, or nullopt) ----------

std::optional<std::string> CheckV2v(PtldbDatabase* db, const Timetable& tt,
                                    const char* type, StopId s, StopId g,
                                    EventTime t, EventTime t_end) {
  if (std::string(type) == "SD") {
    const Result<Duration> got = db->ShortestDuration(s, g, t, t_end);
    if (!got.ok()) return "query error: " + got.status().ToString();
    const Duration want = ShortestDuration(tt, s, g, t, t_end);
    if (*got != want) {
      std::ostringstream ss;
      ss << "got " << *got << ", csa oracle " << want;
      return ss.str();
    }
    return std::nullopt;
  }
  const bool ea = std::string(type) == "EA";
  const Result<EventTime> got =
      ea ? db->EarliestArrival(s, g, t) : db->LatestDeparture(s, g, t);
  if (!got.ok()) return "query error: " + got.status().ToString();
  const EventTime want =
      ea ? EarliestArrival(tt, s, g, t) : LatestDeparture(tt, s, g, t);
  if (*got != want) {
    std::ostringstream ss;
    ss << "got " << *got << ", csa oracle " << want;
    return ss.str();
  }
  return std::nullopt;
}

// kNN answers may differ from the brute list on stops tied at the k-th
// position ("ties broken arbitrarily"), so validate shape: same times
// position-by-position, distinct stops, every stop's true time reported.
std::optional<std::string> ValidateKnn(
    const std::vector<StopTimeResult>& got,
    const std::vector<StopTimeResult>& brute_full, uint32_t k) {
  std::map<StopId, EventTime> truth;
  for (const auto& r : brute_full) truth.emplace(r.stop, r.time);
  const size_t expected = std::min<size_t>(k, brute_full.size());
  std::ostringstream ss;
  if (got.size() != expected) {
    ss << "row count " << got.size() << " != " << expected;
    return ss.str();
  }
  std::set<StopId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].time != brute_full[i].time) {
      ss << "time " << got[i].time << " at position " << i << " != brute "
         << brute_full[i].time;
      return ss.str();
    }
    if (!seen.insert(got[i].stop).second) {
      ss << "duplicate stop " << got[i].stop;
      return ss.str();
    }
    const auto it = truth.find(got[i].stop);
    if (it == truth.end()) {
      ss << "stop " << got[i].stop << " not reachable per oracle";
      return ss.str();
    }
    if (it->second != got[i].time) {
      ss << "stop " << got[i].stop << " time " << got[i].time
         << " != true time " << it->second;
      return ss.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> ValidateOtm(
    const std::vector<StopTimeResult>& got,
    const std::vector<StopTimeResult>& brute) {
  std::ostringstream ss;
  if (got.size() != brute.size()) {
    ss << "row count " << got.size() << " != " << brute.size();
    return ss.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == brute[i])) {
      ss << "row " << i << " = (" << got[i].stop << ", " << got[i].time
         << ") != brute (" << brute[i].stop << ", " << brute[i].time << ")";
      return ss.str();
    }
  }
  return std::nullopt;
}

// Runs one set query (EA-kNN/LD-kNN/EA-OTM/LD-OTM) against a FRESH database
// built for exactly `targets` — rebuilt each call so the shrinker can
// re-evaluate candidate target subsets.
std::optional<std::string> CheckSetQuery(const Network& net,
                                         const std::vector<StopId>& targets,
                                         const char* type, StopId q,
                                         EventTime t, uint32_t k) {
  auto db = MakeDb(net.index, targets, kMaxK);
  const std::string type_s = type;
  Result<std::vector<StopTimeResult>> got = std::vector<StopTimeResult>{};
  if (type_s == "EA-kNN") {
    got = db->EaKnn("t", q, t, k);
  } else if (type_s == "LD-kNN") {
    got = db->LdKnn("t", q, t, k);
  } else if (type_s == "EA-OTM") {
    got = db->EaOneToMany("t", q, t);
  } else {
    got = db->LdOneToMany("t", q, t);
  }
  if (!got.ok()) return "query error: " + got.status().ToString();
  const bool ea = type_s == "EA-kNN" || type_s == "EA-OTM";
  const auto brute = ea ? BruteEaOneToMany(net.tt, q, targets, t)
                        : BruteLdOneToMany(net.tt, q, targets, t);
  if (type_s == "EA-kNN" || type_s == "LD-kNN") {
    return ValidateKnn(*got, brute, k);
  }
  return ValidateOtm(*got, brute);
}

std::string FormatTargets(const std::vector<StopId>& targets) {
  std::ostringstream ss;
  ss << "[";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i != 0) ss << ",";
    ss << targets[i];
  }
  ss << "]";
  return ss.str();
}

// Greedy shrink of a failing set-query case: drop targets one at a time and
// lower k while the mismatch persists. Returns the minimal repro line.
std::string ShrinkSetCase(const Network& net, uint64_t seed, const char* type,
                          StopId q, EventTime t, uint32_t k,
                          std::vector<StopId> targets, std::string detail) {
  bool progress = true;
  while (progress && targets.size() > 1) {
    progress = false;
    for (size_t i = 0; i < targets.size(); ++i) {
      std::vector<StopId> candidate = targets;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (auto still = CheckSetQuery(net, candidate, type, q, t, k)) {
        targets = std::move(candidate);
        detail = std::move(*still);
        progress = true;
        break;
      }
    }
  }
  while (k > 1) {
    if (auto still = CheckSetQuery(net, targets, type, q, t, k - 1)) {
      --k;
      detail = std::move(*still);
    } else {
      break;
    }
  }
  std::ostringstream ss;
  ss << "minimal failing repro: seed=" << seed << " query=" << type
     << " q=" << q << " t=" << t << " k=" << k
     << " targets=" << FormatTargets(targets) << " -- " << detail;
  return ss.str();
}

std::string FormatV2vCase(uint64_t seed, const char* type, StopId s, StopId g,
                          EventTime t, EventTime t_end,
                          const std::string& detail) {
  std::ostringstream ss;
  ss << "minimal failing repro: seed=" << seed << " query=" << type
     << " s=" << s << " g=" << g << " t=" << t;
  if (std::string(type) == "SD") ss << " t_end=" << t_end;
  ss << " -- " << detail;
  return ss.str();
}

TEST(DifferentialTest, AllQueryTypesMatchOraclesOnRandomNetworks) {
  uint32_t failures = 0;
  constexpr uint32_t kMaxReportedFailures = 5;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const Network net = MakeNetwork(seed);
    auto db = MakeDb(net.index, net.targets, kMaxK);
    Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
    const EventTime lo = net.tt.min_time();
    const EventTime hi = net.tt.max_time();

    for (int trial = 0; trial < 12 && failures < kMaxReportedFailures;
         ++trial) {
      // v2v triple: s != g, t anywhere in the service window.
      StopId s = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      StopId g = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      if (g == s) g = (g + 1) % net.tt.num_stops();
      const EventTime t = RandomTime(&rng, net);
      const auto t_end = std::max(
          t, TSec(rng.NextInRange(lo.raw_seconds(), hi.raw_seconds())));
      for (const char* type : {"EA", "LD", "SD"}) {
        if (auto bad = CheckV2v(db.get(), net.tt, type, s, g, t, t_end)) {
          ADD_FAILURE() << FormatV2vCase(seed, type, s, g, t, t_end, *bad);
          ++failures;
        }
      }
    }

    for (int trial = 0; trial < 4 && failures < kMaxReportedFailures;
         ++trial) {
      // Any stop may be the source — q inside the target set has defined
      // "stay put" semantics (EA reports t, LD reports t_end) that the
      // brute oracles implement identically.
      const StopId q = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      const EventTime t = RandomTime(&rng, net);
      const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));
      for (const char* type : {"EA-kNN", "LD-kNN", "EA-OTM", "LD-OTM"}) {
        const bool knn = type[3] == 'k';
        // The main db already has the full target set loaded; reuse it for
        // the first evaluation, then shrink with fresh databases.
        std::optional<std::string> bad;
        if (knn) {
          auto got = std::string(type) == "EA-kNN" ? db->EaKnn("t", q, t, k)
                                                   : db->LdKnn("t", q, t, k);
          if (!got.ok()) {
            bad = "query error: " + got.status().ToString();
          } else {
            const auto brute =
                std::string(type) == "EA-kNN"
                    ? BruteEaOneToMany(net.tt, q, net.targets, t)
                    : BruteLdOneToMany(net.tt, q, net.targets, t);
            bad = ValidateKnn(*got, brute, k);
          }
        } else {
          bad = CheckSetQuery(net, net.targets, type, q, t, k);
        }
        if (bad) {
          ADD_FAILURE() << ShrinkSetCase(net, seed, type, q, t, k,
                                         net.targets, *bad);
          ++failures;
        }
      }
    }
    if (failures >= kMaxReportedFailures) {
      GTEST_FAIL() << "stopping after " << failures << " failures";
    }
  }
}

// The naive Code-2 kNN plans answer through a different physical path
// (knn_naive table); differential-check them too so both plans stay honest.
TEST(DifferentialTest, NaiveKnnPlansMatchOracles) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Network net = MakeNetwork(seed);
    auto db = MakeDb(net.index, net.targets, kMaxK);
    Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
    for (int trial = 0; trial < 6; ++trial) {
      const StopId q = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      const EventTime t = RandomTime(&rng, net);
      const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));
      const auto ea_brute = BruteEaOneToMany(net.tt, q, net.targets, t);
      const auto ld_brute = BruteLdOneToMany(net.tt, q, net.targets, t);
      const auto ea = db->EaKnnNaive("t", q, t, k);
      ASSERT_TRUE(ea.ok());
      if (auto bad = ValidateKnn(*ea, ea_brute, k)) {
        ADD_FAILURE() << "seed=" << seed << " query=EA-kNN-naive q=" << q
                      << " t=" << t << " k=" << k << " -- " << *bad;
      }
      const auto ld = db->LdKnnNaive("t", q, t, k);
      ASSERT_TRUE(ld.ok());
      if (auto bad = ValidateKnn(*ld, ld_brute, k)) {
        ADD_FAILURE() << "seed=" << seed << " query=LD-kNN-naive q=" << q
                      << " t=" << t << " k=" << k << " -- " << *bad;
      }
    }
  }
}

// Raw heap tables vs. the compressed in-memory label tier, head to head on
// the same databases: both representations pack the exact same tuples in
// the exact same order, so every query type must agree bit-for-bit — not
// just up to ties. Runs regardless of PTLDB_TEST_COMPRESSED so plain CI
// jobs cover the compressed tier too.
TEST(DifferentialTest, CompressedLabelTierMatchesRawPath) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Network net = MakeNetwork(seed);
    auto raw = MakeDbWith(net.index, net.targets, kMaxK, false);
    auto comp = MakeDbWith(net.index, net.targets, kMaxK, true);
    ASSERT_NE(comp->label_store(), nullptr);
    ASSERT_EQ(raw->label_store(), nullptr);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 77);
    const EventTime lo = net.tt.min_time();
    const EventTime hi = net.tt.max_time();
    for (int trial = 0; trial < 8; ++trial) {
      StopId s = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      StopId g = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      if (g == s) g = (g + 1) % net.tt.num_stops();
      const EventTime t = RandomTime(&rng, net);
      const auto t_end = std::max(
          t, TSec(rng.NextInRange(lo.raw_seconds(), hi.raw_seconds())));
      const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));

      const auto ea_r = raw->EarliestArrival(s, g, t);
      const auto ea_c = comp->EarliestArrival(s, g, t);
      ASSERT_TRUE(ea_r.ok() && ea_c.ok());
      EXPECT_EQ(*ea_r, *ea_c) << "EA seed=" << seed << " s=" << s
                              << " g=" << g << " t=" << t;
      const auto ld_r = raw->LatestDeparture(s, g, t_end);
      const auto ld_c = comp->LatestDeparture(s, g, t_end);
      ASSERT_TRUE(ld_r.ok() && ld_c.ok());
      EXPECT_EQ(*ld_r, *ld_c) << "LD seed=" << seed << " s=" << s
                              << " g=" << g << " t_end=" << t_end;
      const auto sd_r = raw->ShortestDuration(s, g, t, t_end);
      const auto sd_c = comp->ShortestDuration(s, g, t, t_end);
      ASSERT_TRUE(sd_r.ok() && sd_c.ok());
      EXPECT_EQ(*sd_r, *sd_c) << "SD seed=" << seed << " s=" << s
                              << " g=" << g << " t=" << t
                              << " t_end=" << t_end;

      const auto eaknn_r = raw->EaKnn("t", s, t, k);
      const auto eaknn_c = comp->EaKnn("t", s, t, k);
      ASSERT_TRUE(eaknn_r.ok() && eaknn_c.ok());
      EXPECT_EQ(*eaknn_r, *eaknn_c) << "EA-kNN seed=" << seed << " q=" << s
                                    << " t=" << t << " k=" << k;
      const auto ldknn_r = raw->LdKnn("t", s, t, k);
      const auto ldknn_c = comp->LdKnn("t", s, t, k);
      ASSERT_TRUE(ldknn_r.ok() && ldknn_c.ok());
      EXPECT_EQ(*ldknn_r, *ldknn_c) << "LD-kNN seed=" << seed << " q=" << s
                                    << " t=" << t << " k=" << k;
      const auto eaotm_r = raw->EaOneToMany("t", s, t);
      const auto eaotm_c = comp->EaOneToMany("t", s, t);
      ASSERT_TRUE(eaotm_r.ok() && eaotm_c.ok());
      EXPECT_EQ(*eaotm_r, *eaotm_c) << "EA-OTM seed=" << seed << " q=" << s
                                    << " t=" << t;
      const auto ldotm_r = raw->LdOneToMany("t", s, t);
      const auto ldotm_c = comp->LdOneToMany("t", s, t);
      ASSERT_TRUE(ldotm_r.ok() && ldotm_c.ok());
      EXPECT_EQ(*ldotm_r, *ldotm_c) << "LD-OTM seed=" << seed << " q=" << s
                                    << " t=" << t;
    }
    // The compressed tier actually served those queries: decode counters
    // moved on the compressed database and stayed flat on the raw one.
    const auto snap_c = comp->metrics()->Snapshot();
    const auto snap_r = raw->metrics()->Snapshot();
    EXPECT_GT(snap_c.counters.at("ttl.labels.decodes"), 0u);
    EXPECT_EQ(snap_r.counters.at("ttl.labels.decodes"), 0u);
  }
}

// The compiled register-VM programs vs. the paper's literal Codes 1-4 run
// by the SQL interpreter (paper_sql.h), head to head on the same database
// for all seven query types plus the naive Code 2 baselines, on both label
// tiers. The two executors share nothing above the table reader — plan
// shape, scratch memory, aggregation and top-k all differ — so
// bit-for-bit agreement here plus the oracle coverage above pins the VM
// to the paper's text. The literal SQL has no "stay put" rule, so the
// set-query source q is drawn outside T. The vm_steps counter proves each
// half took the executor it claims: it moves on every VM query and stays
// flat across the SQL half.
TEST(DifferentialTest, VmMatchesInterpreterPath) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Network net = MakeNetwork(seed);
    const std::set<StopId> in_t(net.targets.begin(), net.targets.end());
    for (const bool compressed : {false, true}) {
      auto db = MakeDbWith(net.index, net.targets, kMaxK, compressed);
      PaperSql sql(db.get(), "t");
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101);
      const EventTime lo = net.tt.min_time();
      const EventTime hi = net.tt.max_time();
      const auto vm_steps = [&db] {
        return db->metrics()->Snapshot().counters.at("exec.vm_steps");
      };
      for (int trial = 0; trial < 8; ++trial) {
        StopId s = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
        StopId g = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
        if (g == s) g = (g + 1) % net.tt.num_stops();
        StopId q = s;
        while (in_t.count(q) != 0) q = (q + 1) % net.tt.num_stops();
        const EventTime t = RandomTime(&rng, net);
        const auto t_end = std::max(
            t, TSec(rng.NextInRange(lo.raw_seconds(), hi.raw_seconds())));
        const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));

        const uint64_t steps_before = vm_steps();
        const auto ea_v = db->EarliestArrival(s, g, t);
        const auto ld_v = db->LatestDeparture(s, g, t_end);
        const auto sd_v = db->ShortestDuration(s, g, t, t_end);
        const auto eaknn_v = db->EaKnn("t", q, t, k);
        const auto ldknn_v = db->LdKnn("t", q, t, k);
        const auto eaotm_v = db->EaOneToMany("t", q, t);
        const auto ldotm_v = db->LdOneToMany("t", q, t);
        const auto eanaive_v = db->EaKnnNaive("t", q, t, k);
        const auto ldnaive_v = db->LdKnnNaive("t", q, t, k);
        const uint64_t steps_mid = vm_steps();
        EXPECT_GT(steps_mid, steps_before)
            << "facade half did not execute on the VM";

        const auto ea_s = sql.Ea(s, g, t);
        const auto ld_s = sql.Ld(s, g, t_end);
        const auto sd_s = sql.Sd(s, g, t, t_end);
        const auto eaknn_s = sql.EaKnn(q, t, k);
        const auto ldknn_s = sql.LdKnn(q, t, k);
        const auto eaotm_s = sql.EaOtm(q, t);
        const auto ldotm_s = sql.LdOtm(q, t);
        const auto eanaive_s = sql.EaKnnNaive(q, t, k);
        const auto ldnaive_s = sql.LdKnnNaive(q, t, k);
        EXPECT_EQ(vm_steps(), steps_mid)
            << "SQL half touched the VM step counter";

        const std::string v2v_case = " seed=" + std::to_string(seed) +
                                     " s=" + std::to_string(s) +
                                     " g=" + std::to_string(g);
        const std::string set_case = " seed=" + std::to_string(seed) +
                                     " q=" + std::to_string(q) +
                                     " k=" + std::to_string(k);
        ASSERT_TRUE(ea_v.ok() && ea_s.ok()) << ea_s.status().ToString();
        EXPECT_EQ(*ea_v, *ea_s) << "EA" << v2v_case << " t=" << t;
        ASSERT_TRUE(ld_v.ok() && ld_s.ok()) << ld_s.status().ToString();
        EXPECT_EQ(*ld_v, *ld_s) << "LD" << v2v_case << " t_end=" << t_end;
        ASSERT_TRUE(sd_v.ok() && sd_s.ok()) << sd_s.status().ToString();
        EXPECT_EQ(*sd_v, *sd_s) << "SD" << v2v_case << " t=" << t
                                << " t_end=" << t_end;
        ASSERT_TRUE(eaknn_v.ok() && eaknn_s.ok());
        EXPECT_EQ(*eaknn_v, *eaknn_s) << "EA-kNN" << set_case << " t=" << t;
        ASSERT_TRUE(ldknn_v.ok() && ldknn_s.ok());
        EXPECT_EQ(*ldknn_v, *ldknn_s) << "LD-kNN" << set_case << " t=" << t;
        ASSERT_TRUE(eaotm_v.ok() && eaotm_s.ok());
        EXPECT_EQ(*eaotm_v, *eaotm_s) << "EA-OTM" << set_case << " t=" << t;
        ASSERT_TRUE(ldotm_v.ok() && ldotm_s.ok());
        EXPECT_EQ(*ldotm_v, *ldotm_s) << "LD-OTM" << set_case << " t=" << t;
        ASSERT_TRUE(eanaive_v.ok() && eanaive_s.ok());
        EXPECT_EQ(*eanaive_v, *eanaive_s)
            << "EA-kNN-naive" << set_case << " t=" << t;
        ASSERT_TRUE(ldnaive_v.ok() && ldnaive_s.ok());
        EXPECT_EQ(*ldnaive_v, *ldnaive_s)
            << "LD-kNN-naive" << set_case << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace ptldb
