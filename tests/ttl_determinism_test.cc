// Pins the determinism guarantee of the wave-parallel TTL build: the index
// (labels, stats, serialized bytes) is identical for every thread count and
// wave partition, and equal to what the pre-parallel serial builder
// produced. The CRC32C goldens below were captured from the serial
// hub-at-a-time implementation before the wave build existed — equality
// against them is equality with that builder, byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <algorithm>
#include <map>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/checksum.h"
#include "paper_sql.h"
#include "ptldb/ptldb.h"
#include "timetable/example_graph.h"
#include "timetable/generator.h"
#include "ttl/builder.h"
#include "ttl/label_store.h"
#include "ttl/serialize.h"

#include "test_time.h"

namespace ptldb {
namespace {

const uint32_t kThreadCounts[] = {1, 2, 4, 8};

std::string ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[65536];
  size_t n;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

std::string SerializedBytes(const TtlIndex& index, const char* tag) {
  const std::string path =
      testing::TempDir() + "/determinism_" + tag + ".ttl";
  EXPECT_TRUE(SaveTtlIndex(index, path).ok());
  return ReadFileBytes(path);
}

Timetable MediumCity(uint64_t seed) {
  GeneratorOptions o;
  o.num_stops = 80;
  o.target_connections = 4000;
  o.min_route_len = 4;
  o.max_route_len = 9;
  o.seed = seed;
  auto tt = GenerateNetwork(o);
  EXPECT_TRUE(tt.ok());
  return std::move(tt).value();
}

void ExpectLabelsEqual(const TtlIndex& a, const TtlIndex& b) {
  ASSERT_EQ(a.num_stops(), b.num_stops());
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.rank, b.rank);
  for (StopId v = 0; v < a.num_stops(); ++v) {
    const auto ao = a.out.tuples(v);
    const auto bo = b.out.tuples(v);
    ASSERT_EQ(ao.size(), bo.size()) << "L_out size at stop " << v;
    for (size_t i = 0; i < ao.size(); ++i) {
      EXPECT_EQ(ao[i], bo[i]) << "L_out tuple " << i << " at stop " << v;
    }
    const auto ai = a.in.tuples(v);
    const auto bi = b.in.tuples(v);
    ASSERT_EQ(ai.size(), bi.size()) << "L_in size at stop " << v;
    for (size_t i = 0; i < ai.size(); ++i) {
      EXPECT_EQ(ai[i], bi[i]) << "L_in tuple " << i << " at stop " << v;
    }
  }
}

void ExpectStatsEqual(const TtlBuildStats& a, const TtlBuildStats& b) {
  EXPECT_EQ(a.out_tuples, b.out_tuples);
  EXPECT_EQ(a.in_tuples, b.in_tuples);
  EXPECT_EQ(a.dummy_tuples, b.dummy_tuples);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (size_t w = 0; w < a.waves.size(); ++w) {
    EXPECT_EQ(a.waves[w].first_rank, b.waves[w].first_rank) << "wave " << w;
    EXPECT_EQ(a.waves[w].num_hubs, b.waves[w].num_hubs) << "wave " << w;
    EXPECT_EQ(a.waves[w].candidate_tuples, b.waves[w].candidate_tuples)
        << "wave " << w;
    EXPECT_EQ(a.waves[w].merged_tuples, b.waves[w].merged_tuples)
        << "wave " << w;
    EXPECT_EQ(a.waves[w].scan_pruned, b.waves[w].scan_pruned) << "wave " << w;
    EXPECT_EQ(a.waves[w].merge_pruned, b.waves[w].merge_pruned)
        << "wave " << w;
  }
}

// Builds with every thread count and checks labels, stats, and serialized
// bytes all agree; returns the common serialized bytes.
std::string BuildAllThreadCounts(const Timetable& tt, const char* tag,
                                 TtlBuildOptions base = {}) {
  std::string ref_bytes;
  TtlIndex ref_index;
  TtlBuildStats ref_stats;
  for (const uint32_t threads : kThreadCounts) {
    TtlBuildOptions options = base;
    options.num_threads = threads;
    TtlBuildStats stats;
    auto index = BuildTtlIndex(tt, options, &stats);
    EXPECT_TRUE(index.ok());
    EXPECT_EQ(stats.num_threads_used, threads);
    const std::string bytes = SerializedBytes(*index, tag);
    if (threads == 1) {
      ref_bytes = bytes;
      ref_index = std::move(index).value();
      ref_stats = stats;
      continue;
    }
    EXPECT_EQ(bytes, ref_bytes)
        << tag << ": serialized index differs between 1 and " << threads
        << " threads";
    ExpectLabelsEqual(*index, ref_index);
    ExpectStatsEqual(stats, ref_stats);
  }
  return ref_bytes;
}

// Golden bytes captured from the pre-wave serial builder. Any change here
// means the construction no longer reproduces the original algorithm.
TEST(TtlDeterminismTest, ExampleGraphMatchesSerialGolden) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions base;
  base.custom_order = ExampleVertexOrder();
  const std::string bytes = BuildAllThreadCounts(tt, "example", base);
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x84cf3d08u);
}

TEST(TtlDeterminismTest, GeneratedGraphsMatchSerialGoldens) {
  struct Golden {
    uint64_t seed;
    size_t bytes;
    uint32_t crc;
  };
  // Captured from the serial builder on these exact generator options.
  const Golden goldens[] = {
      {7, 631500, 0x8718d352},
      {1234, 645040, 0x4e365470},
      {99, 589740, 0xd4b6fc83},
  };
  for (const Golden& g : goldens) {
    const Timetable tt = MediumCity(g.seed);
    char tag[32];
    std::snprintf(tag, sizeof(tag), "gen%llu", (unsigned long long)g.seed);
    const std::string bytes = BuildAllThreadCounts(tt, tag);
    EXPECT_EQ(bytes.size(), g.bytes) << "seed " << g.seed;
    EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), g.crc) << "seed " << g.seed;
  }
}

// The wave partition is a performance knob, not a semantic one: any cap
// (including one that serializes everything into singleton waves) yields
// the same canonical labels.
TEST(TtlDeterminismTest, WavePartitionDoesNotChangeTheIndex) {
  const Timetable tt = MediumCity(7);
  std::string ref;
  for (const uint32_t cap : {1u, 2u, 16u, 64u, 1000u}) {
    TtlBuildOptions options;
    options.max_wave_hubs = cap;
    options.num_threads = 4;
    TtlBuildStats stats;
    auto index = BuildTtlIndex(tt, options, &stats);
    ASSERT_TRUE(index.ok());
    char tag[32];
    std::snprintf(tag, sizeof(tag), "cap%u", cap);
    const std::string bytes = SerializedBytes(*index, tag);
    if (ref.empty()) {
      ref = bytes;
    } else {
      EXPECT_EQ(bytes, ref) << "index differs at wave cap " << cap;
    }
    // Waves cover all hubs exactly once, in rank order.
    uint32_t covered = 0;
    for (const TtlWaveStats& w : stats.waves) {
      EXPECT_EQ(w.first_rank, covered);
      EXPECT_LE(w.num_hubs, std::max(cap, 1u));
      covered += w.num_hubs;
    }
    EXPECT_EQ(covered, tt.num_stops());
  }
  EXPECT_EQ(Crc32c(ref.data(), ref.size()), 0x8718d352u);
}

// Pruning off is the ablation configuration: still deterministic across
// thread counts (no goldens — plain hierarchical labels are much larger).
TEST(TtlDeterminismTest, UnprunedBuildIsAlsoDeterministic) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions base;
  base.prune = false;
  BuildAllThreadCounts(tt, "unpruned", base);
}

// The compressed label tier inherits the build's determinism: the encoded
// arenas (delta+varint buckets, tier CRC over L_out then L_in) must be
// byte-identical for every thread count, and pinned against goldens so a
// codec change that silently alters the wire format is caught here. The
// golden CRCs were captured from the single-threaded build.
TEST(TtlDeterminismTest, CompressedLabelTierIsDeterministicAcrossThreads) {
  struct Golden {
    uint64_t seed;  // 0 = the example graph
    uint64_t bytes;
    uint32_t crc;
  };
  const Golden goldens[] = {
      {0, 234, 0x00895e65u},
      {7, 147118, 0xcd76e206u},
      {1234, 150638, 0xda56cbf3u},
  };
  for (const Golden& g : goldens) {
    uint32_t ref_crc = 0;
    uint64_t ref_bytes = 0;
    const Timetable tt = g.seed == 0 ? MakeExampleTimetable()
                                     : MediumCity(g.seed);
    for (const uint32_t threads : kThreadCounts) {
      TtlBuildOptions options;
      if (g.seed == 0) options.custom_order = ExampleVertexOrder();
      options.num_threads = threads;
      auto index = BuildTtlIndex(tt, options);
      ASSERT_TRUE(index.ok());
      auto store = LabelStore::Build(*index);
      ASSERT_TRUE(store.ok());
      if (threads == kThreadCounts[0]) {
        ref_crc = (*store)->content_crc();
        ref_bytes = (*store)->bytes_resident();
        EXPECT_EQ(ref_bytes, g.bytes) << "seed " << g.seed;
        EXPECT_EQ(ref_crc, g.crc) << "seed " << g.seed;
        continue;
      }
      EXPECT_EQ((*store)->content_crc(), ref_crc)
          << "seed " << g.seed << ": encoded labels differ between "
          << kThreadCounts[0] << " and " << threads << " threads";
      EXPECT_EQ((*store)->bytes_resident(), ref_bytes) << "seed " << g.seed;
    }
  }
}

// A kNN answer agrees with the brute list when its times match position
// by position and every stop carries its true time (stops tied at the
// k-th position may be broken either way).
void ExpectKnnMatchesBrute(const std::vector<StopTimeResult>& got,
                           const std::vector<StopTimeResult>& brute,
                           uint32_t k, const std::string& what) {
  std::map<StopId, EventTime> truth;
  for (const auto& r : brute) truth.emplace(r.stop, r.time);
  ASSERT_EQ(got.size(), std::min<size_t>(k, brute.size())) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, brute[i].time) << what << " position " << i;
    const auto it = truth.find(got[i].stop);
    ASSERT_NE(it, truth.end()) << what << " stop " << got[i].stop;
    EXPECT_EQ(it->second, got[i].time) << what << " stop " << got[i].stop;
  }
}

// The executor must not be a source of nondeterminism either:
// exhaustively over every ordered stop pair of the example graph and every
// event boundary (each departure/arrival time and one second to either
// side), the compiled register VM answers all seven query types and the
// naive Code 2 baselines exactly like the paper's literal SQL (for q
// outside T, where the SQL applies) and like the CSA/brute oracles, on
// both label tiers. The build goldens above pin the index bytes; this pins
// that the executor can never leak into an answer served from them.
TEST(TtlDeterminismTest, ExecutorChoiceDoesNotChangeAnswers) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions build;
  build.custom_order = ExampleVertexOrder();
  auto index = BuildTtlIndex(tt, build);
  ASSERT_TRUE(index.ok());

  std::vector<EventTime> times;
  for (const Connection& c : tt.connections()) {
    for (const EventTime base : {c.dep, c.arr}) {
      times.push_back(base - DSec(1));
      times.push_back(base);
      times.push_back(base + DSec(1));
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  std::vector<StopId> targets;
  for (StopId v = 0; v < tt.num_stops(); v += 2) targets.push_back(v);
  constexpr uint32_t kK = 2;

  for (const bool compressed : {false, true}) {
    PtldbOptions options;
    options.device = DeviceProfile::Ram();
    options.compressed_labels = compressed;
    auto built = PtldbDatabase::Build(*index, options);
    ASSERT_TRUE(built.ok());
    PtldbDatabase* db = built->get();
    ASSERT_TRUE(db->AddTargetSet("t", *index, targets, 4).ok());
    PaperSql sql(db, "t");
    const EventTime t_end = tt.max_time();
    for (StopId s = 0; s < tt.num_stops(); ++s) {
      const bool in_t =
          std::find(targets.begin(), targets.end(), s) != targets.end();
      for (const EventTime t : times) {
        const std::string at = " q=" + std::to_string(s) +
                               " t=" + std::to_string(t.raw_seconds()) +
                               (compressed ? " compressed" : " raw");
        const auto ea_full = BruteEaOneToMany(tt, s, targets, t);
        const auto ld_full = BruteLdOneToMany(tt, s, targets, t);
        const auto eaknn = db->EaKnn("t", s, t, kK);
        const auto ldknn = db->LdKnn("t", s, t, kK);
        const auto eaotm = db->EaOneToMany("t", s, t);
        const auto ldotm = db->LdOneToMany("t", s, t);
        const auto eanaive = db->EaKnnNaive("t", s, t, kK);
        const auto ldnaive = db->LdKnnNaive("t", s, t, kK);
        ASSERT_TRUE(eaknn.ok() && ldknn.ok() && eaotm.ok() && ldotm.ok() &&
                    eanaive.ok() && ldnaive.ok());
        ExpectKnnMatchesBrute(*eaknn, ea_full, kK, "EA-kNN" + at);
        ExpectKnnMatchesBrute(*ldknn, ld_full, kK, "LD-kNN" + at);
        ExpectKnnMatchesBrute(*eanaive, ea_full, kK, "EA-kNN-naive" + at);
        ExpectKnnMatchesBrute(*ldnaive, ld_full, kK, "LD-kNN-naive" + at);
        EXPECT_EQ(*eaotm, ea_full) << "EA-OTM" << at;
        EXPECT_EQ(*ldotm, ld_full) << "LD-OTM" << at;
        if (!in_t) {
          EXPECT_EQ(*eaknn, *sql.EaKnn(s, t, kK)) << "EA-kNN" << at;
          EXPECT_EQ(*ldknn, *sql.LdKnn(s, t, kK)) << "LD-kNN" << at;
          EXPECT_EQ(*eaotm, *sql.EaOtm(s, t)) << "EA-OTM" << at;
          EXPECT_EQ(*ldotm, *sql.LdOtm(s, t)) << "LD-OTM" << at;
          EXPECT_EQ(*eanaive, *sql.EaKnnNaive(s, t, kK))
              << "EA-kNN-naive" << at;
          EXPECT_EQ(*ldnaive, *sql.LdKnnNaive(s, t, kK))
              << "LD-kNN-naive" << at;
        }
        for (StopId g = 0; g < tt.num_stops(); ++g) {
          if (g == s) continue;
          const std::string pair = at + " g=" + std::to_string(g);
          const auto ea = db->EarliestArrival(s, g, t);
          const auto ld = db->LatestDeparture(s, g, t);
          const auto sd = db->ShortestDuration(s, g, t, t_end);
          ASSERT_TRUE(ea.ok() && ld.ok() && sd.ok());
          EXPECT_EQ(*ea, EarliestArrival(tt, s, g, t)) << "EA" << pair;
          EXPECT_EQ(*ld, LatestDeparture(tt, s, g, t)) << "LD" << pair;
          EXPECT_EQ(*sd, ShortestDuration(tt, s, g, t, t_end)) << "SD" << pair;
          EXPECT_EQ(*ea, *sql.Ea(s, g, t)) << "EA" << pair;
          EXPECT_EQ(*ld, *sql.Ld(s, g, t)) << "LD" << pair;
          EXPECT_EQ(*sd, *sql.Sd(s, g, t, t_end)) << "SD" << pair;
        }
      }
    }
  }
}

// num_threads = 0 ("use the hardware") must resolve to some worker count
// and still produce the canonical index.
TEST(TtlDeterminismTest, HardwareThreadCountProducesSameIndex) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions options;
  options.num_threads = 0;
  TtlBuildStats stats;
  auto index = BuildTtlIndex(tt, options, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_GE(stats.num_threads_used, 1u);
  // The example graph's degree order coincides with the paper's order, so
  // the golden is the same as ExampleGraphMatchesSerialGolden.
  const std::string bytes = SerializedBytes(*index, "hw");
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x84cf3d08u);
}

}  // namespace
}  // namespace ptldb
