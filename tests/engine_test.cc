#include <gtest/gtest.h>

#include <algorithm>

#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/database.h"
#include "engine/device.h"
#include "common/rng.h"
#include "engine/heap_file.h"

namespace ptldb {
namespace {

TEST(DeviceTest, ChargesRandomVsSequential) {
  StorageDevice device(DeviceProfile::Hdd7200());
  device.ResetStats();
  device.ChargeRead(10);  // Random.
  device.ChargeRead(11);  // Sequential.
  device.ChargeRead(12);  // Sequential.
  device.ChargeRead(50);  // Random.
  const auto& p = device.profile();
  EXPECT_EQ(device.total_ns(), 2 * p.random_read_ns + 2 * p.sequential_read_ns);
  EXPECT_EQ(device.reads(), 4u);
  EXPECT_EQ(device.sequential_reads(), 2u);
}

TEST(DeviceTest, ProfilesAreOrdered) {
  EXPECT_GT(DeviceProfile::Hdd7200().random_read_ns,
            DeviceProfile::SataSsd().random_read_ns);
  EXPECT_EQ(DeviceProfile::Ram().random_read_ns, 0u);
}

TEST(BufferPoolTest, HitsAfterFirstFetch) {
  PageStore store;
  const PageId a = store.Allocate();
  StorageDevice device(DeviceProfile::SataSsd());
  BufferPool pool(&store, &device);
  EXPECT_TRUE(pool.Fetch(a).ok());
  EXPECT_TRUE(pool.Fetch(a).ok());
  EXPECT_TRUE(pool.Fetch(a).ok());
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(device.reads(), 1u);
}

TEST(BufferPoolTest, DropCachesForcesMissesAgain) {
  PageStore store;
  const PageId a = store.Allocate();
  StorageDevice device(DeviceProfile::SataSsd());
  BufferPool pool(&store, &device);
  EXPECT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.DropCaches().ok());
  EXPECT_TRUE(pool.Fetch(a).ok());
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  PageStore store;
  for (int i = 0; i < 3; ++i) store.Allocate();
  StorageDevice device(DeviceProfile::SataSsd());
  BufferPool pool(&store, &device, /*capacity_pages=*/2);
  EXPECT_TRUE(pool.Fetch(0).ok());
  EXPECT_TRUE(pool.Fetch(1).ok());
  EXPECT_TRUE(pool.Fetch(0).ok());  // 0 is now hottest.
  EXPECT_TRUE(pool.Fetch(2).ok());  // Evicts 1.
  EXPECT_EQ(pool.resident_pages(), 2u);
  pool.ResetStats();
  EXPECT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(pool.Fetch(1).ok());
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(PageGuardTest, GuardKeepsFrameAliveUnderEvictionPressure) {
  PageStore store;
  for (int i = 0; i < 10; ++i) {
    const PageId id = store.Allocate();
    store.page(id).bytes.fill(static_cast<uint8_t>(id + 1));
  }
  store.StampChecksums();
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device, /*capacity_pages=*/2);
  auto pinned = pool.Fetch(0);
  ASSERT_TRUE(pinned.ok());
  // Churn every other page through the 2-frame pool: page 0 would be the
  // LRU victim many times over, but the pin forbids eviction.
  for (PageId id = 1; id < 10; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ((*pinned)->bytes[123], 1);
  EXPECT_EQ(pool.pinned_pages(), 1u);
  pool.ResetStats();
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.hits(), 1u);  // Still resident: never evicted.
}

TEST(PageGuardTest, MoveTransfersThePin) {
  PageStore store;
  store.Allocate();
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device, /*capacity_pages=*/2);
  auto fetched = pool.Fetch(0);
  ASSERT_TRUE(fetched.ok());
  PageGuard moved = std::move(*fetched);
  fetched->Release();  // Moved-from guard: releasing is a no-op.
  EXPECT_EQ(pool.pinned_pages(), 1u);
  EXPECT_EQ(moved->bytes[0], 0);
  moved.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
  moved.Release();  // Idempotent.
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(PageGuardTest, AllFramesPinnedFailsLoudly) {
  PageStore store;
  for (int i = 0; i < 3; ++i) store.Allocate();
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device, /*capacity_pages=*/2);
  auto g0 = pool.Fetch(0);
  auto g1 = pool.Fetch(1);
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  // Both frames pinned: the pool must refuse (after its bounded wait)
  // rather than silently invalidate a live guard.
  auto r = pool.Fetch(2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInternal);
  g0->Release();
  EXPECT_TRUE(pool.Fetch(2).ok());
}

TEST(PageGuardTest, DropCachesRejectsActivePins) {
  PageStore store;
  for (int i = 0; i < 2; ++i) store.Allocate();
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device);
  auto g = pool.Fetch(0);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(pool.Fetch(1).ok());  // Unpinned immediately.
  const Status rejected = pool.DropCaches();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Status::Code::kInternal);
  // The drop was partial: unpinned page 1 went, pinned page 0 stayed.
  EXPECT_EQ(pool.resident_pages(), 1u);
  EXPECT_EQ((*g)->bytes[0], 0);  // Guard still valid after the drop.
  g->Release();
  EXPECT_TRUE(pool.DropCaches().ok());
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(BufferPoolTest, AutoShardCountScalesWithCapacity) {
  PageStore store;
  store.Allocate();
  StorageDevice device(DeviceProfile::Ram());
  // Tiny pools collapse to one shard so eviction-order tests see strict
  // global LRU; serving-sized pools spread over several latches.
  BufferPool tiny(&store, &device, /*capacity_pages=*/2);
  EXPECT_EQ(tiny.num_shards(), 1u);
  BufferPool big(&store, &device, /*capacity_pages=*/1u << 20);
  EXPECT_GT(big.num_shards(), 1u);
  // An explicit shard count wins, but never exceeds one frame per shard.
  BufferPool pinned_layout(&store, &device, /*capacity_pages=*/8,
                           /*num_shards=*/4);
  EXPECT_EQ(pinned_layout.num_shards(), 4u);
  BufferPool clamped(&store, &device, /*capacity_pages=*/2, /*num_shards=*/8);
  EXPECT_EQ(clamped.num_shards(), 2u);
}

TEST(BufferPoolTest, ShardStatsSumToPoolTotals) {
  PageStore store;
  for (int i = 0; i < 64; ++i) {
    const PageId id = store.Allocate();
    store.page(id).bytes.fill(static_cast<uint8_t>(id));
  }
  store.StampChecksums();
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device, /*capacity_pages=*/16, /*num_shards=*/4);
  for (PageId id = 0; id < 64; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  for (PageId id = 0; id < 64; id += 7) ASSERT_TRUE(pool.Fetch(id).ok());
  uint64_t hits = 0, misses = 0, evictions = 0, resident = 0;
  for (uint32_t s = 0; s < pool.num_shards(); ++s) {
    const BufferPool::ShardStats stats = pool.shard_stats(s);
    EXPECT_LE(stats.resident_pages, stats.capacity_pages);
    hits += stats.hits;
    misses += stats.misses;
    evictions += stats.evictions;
    resident += stats.resident_pages;
  }
  EXPECT_EQ(hits, pool.hits());
  EXPECT_EQ(misses, pool.misses());
  EXPECT_EQ(evictions, pool.evictions());
  EXPECT_EQ(resident, pool.resident_pages());
  EXPECT_LE(pool.resident_pages(), 16u);
  EXPECT_EQ(pool.pinned_pages(), 0u);  // All guards were temporaries.
}

class HeapTest : public testing::Test {
 protected:
  HeapTest() : device_(DeviceProfile::Ram()), pool_(&store_, &device_) {}
  PageStore store_;
  StorageDevice device_;
  BufferPool pool_;
};

TEST_F(HeapTest, RoundTripsScalarAndArrayColumns) {
  const Schema schema{{"a", ColumnType::kInt32},
                      {"b", ColumnType::kInt32Array}};
  HeapFile heap(&store_);
  const Row row{Value(7), Value(std::vector<int32_t>{1, -2, 3})};
  const RowLocator loc = heap.Append(row, schema);
  EXPECT_EQ(loc.length, SerializedRowSize(row, schema));
  EXPECT_EQ(*heap.Read(loc, schema, &pool_), row);
}

TEST_F(HeapTest, RowsLargerThanPageSpanPages) {
  const Schema schema{{"big", ColumnType::kInt32Array}};
  HeapFile heap(&store_);
  std::vector<int32_t> big(5000);  // 20 KB > 2 pages.
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<int32_t>(i * 3);
  const Row row{Value(big)};
  const RowLocator loc = heap.Append(row, schema);
  EXPECT_GE(heap.num_pages(), 3u);
  EXPECT_EQ(*heap.Read(loc, schema, &pool_), row);
}

TEST_F(HeapTest, ManyRowsBackToBack) {
  const Schema schema{{"a", ColumnType::kInt32},
                      {"b", ColumnType::kInt32Array}};
  HeapFile heap(&store_);
  std::vector<RowLocator> locators;
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    Row row{Value(i), Value(std::vector<int32_t>(
                          static_cast<size_t>(i % 37), i))};
    locators.push_back(heap.Append(row, schema));
    rows.push_back(std::move(row));
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(*heap.Read(locators[i], schema, &pool_), rows[i]) << i;
  }
}

TEST_F(HeapTest, WideRowReadIsOneSeekPlusSequential) {
  const Schema schema{{"big", ColumnType::kInt32Array}};
  HeapFile heap(&store_);
  const Row row{Value(std::vector<int32_t>(10000, 1))};  // ~40 KB, 5+ pages.
  const RowLocator loc = heap.Append(row, schema);
  StorageDevice hdd(DeviceProfile::Hdd7200());
  BufferPool cold(&store_, &hdd);
  ASSERT_TRUE(heap.Read(loc, schema, &cold).ok());
  // Exactly one random access; everything else streams.
  EXPECT_EQ(hdd.reads() - hdd.sequential_reads(), 1u);
  EXPECT_GE(hdd.sequential_reads(), 4u);
}

TEST(CompositeKeyTest, PreservesLexicographicOrder) {
  EXPECT_LT(MakeCompositeKey(1, 5), MakeCompositeKey(2, 0));
  EXPECT_LT(MakeCompositeKey(1, 5), MakeCompositeKey(1, 6));
  EXPECT_EQ(MakeCompositeKey(0, 0), 0);
  EXPECT_LT(MakeCompositeKey(3, 0x7fffffff), MakeCompositeKey(4, 0));
}

class BTreeTest : public testing::Test {
 protected:
  BTreeTest() : device_(DeviceProfile::Ram()), pool_(&store_, &device_) {}
  PageStore store_;
  StorageDevice device_;
  BufferPool pool_;
};

TEST_F(BTreeTest, FindOnMultiLevelTree) {
  BTree tree(&store_);
  std::vector<std::pair<IndexKey, RowLocator>> entries;
  for (int i = 0; i < 20000; ++i) {
    entries.emplace_back(i * 3, RowLocator{static_cast<uint64_t>(i), 1});
  }
  tree.BulkLoad(entries);
  EXPECT_GE(tree.height(), 2u);
  EXPECT_EQ(tree.num_entries(), 20000u);
  for (int i = 0; i < 20000; i += 97) {
    const auto hit = tree.Find(i * 3, &pool_);
    ASSERT_TRUE(hit->has_value()) << i;
    EXPECT_EQ((*hit)->offset, static_cast<uint64_t>(i));
    EXPECT_FALSE(tree.Find(i * 3 + 1, &pool_)->has_value());
  }
  EXPECT_FALSE(tree.Find(-1, &pool_)->has_value());
  EXPECT_FALSE(tree.Find(3 * 20000 + 5, &pool_)->has_value());
}

TEST_F(BTreeTest, EmptyTree) {
  BTree tree(&store_);
  tree.BulkLoad({});
  EXPECT_FALSE(tree.Find(0, &pool_)->has_value());
  EXPECT_FALSE(tree.SeekNotBefore(0, &pool_).Valid());
}

TEST_F(BTreeTest, SeekIteratesInOrderAcrossLeaves) {
  BTree tree(&store_);
  std::vector<std::pair<IndexKey, RowLocator>> entries;
  for (int i = 0; i < 5000; ++i) {
    entries.emplace_back(i * 2, RowLocator{static_cast<uint64_t>(i), 1});
  }
  tree.BulkLoad(entries);
  // Seek to an absent key lands on the next present one.
  auto it = tree.SeekNotBefore(1001, &pool_);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 1002);
  int count = 0;
  IndexKey prev = -1;
  while (it.Valid()) {
    EXPECT_GT(it.key(), prev);
    prev = it.key();
    it.Next();
    ++count;
  }
  EXPECT_EQ(count, 5000 - 501);
  // Seeking past the end is invalid.
  EXPECT_FALSE(tree.SeekNotBefore(999999, &pool_).Valid());
}

TEST_F(BTreeTest, RandomizedAgainstStdMap) {
  // Property check: bulk-loaded tree behaves like a sorted map for point
  // lookups and lower-bound seeks, across random key distributions.
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    std::map<IndexKey, RowLocator> truth;
    const int n = 1 + static_cast<int>(rng.NextBelow(3000));
    while (static_cast<int>(truth.size()) < n) {
      const auto key = static_cast<IndexKey>(rng.NextBelow(1u << 20));
      truth[key] = RowLocator{static_cast<uint64_t>(key) * 7, 3};
    }
    PageStore store;
    StorageDevice device(DeviceProfile::Ram());
    BufferPool pool(&store, &device);
    BTree tree(&store);
    tree.BulkLoad({truth.begin(), truth.end()});
    for (int probe = 0; probe < 300; ++probe) {
      const auto key = static_cast<IndexKey>(rng.NextBelow(1u << 20));
      const auto hit = tree.Find(key, &pool);
      const auto it = truth.find(key);
      ASSERT_EQ(hit->has_value(), it != truth.end()) << key;
      if (hit->has_value()) EXPECT_EQ(**hit, it->second);
      auto cursor = tree.SeekNotBefore(key, &pool);
      const auto lb = truth.lower_bound(key);
      if (lb == truth.end()) {
        EXPECT_FALSE(cursor.Valid());
      } else {
        ASSERT_TRUE(cursor.Valid());
        EXPECT_EQ(cursor.key(), lb->first);
      }
    }
  }
}

// ---------- Range cursors (the knn_naive walk of Code 2) ----------

class CursorTest : public testing::Test {
 protected:
  CursorTest() : db_(DeviceProfile::Ram()) {
    auto table = db_.CreateTable(
        "t", Schema{{"id", ColumnType::kInt32},
                    {"vals", ColumnType::kInt32Array}});
    table_ = *table;
    std::vector<std::pair<IndexKey, Row>> rows;
    for (int32_t i = 0; i < 10; ++i) {
      rows.emplace_back(
          i, Row{Value(i), Value(std::vector<int32_t>{i, i + 1, i + 2})});
    }
    EXPECT_TRUE(table_->BulkLoad(std::move(rows)).ok());
  }

  EngineDatabase db_;
  EngineTable* table_ = nullptr;
};

TEST_F(CursorTest, ReadIntoDecodesTheSameRowAsRow) {
  RowScratch scratch;
  int32_t seen = 0;
  auto cursor = table_->Seek(4, db_.buffer_pool());
  for (; cursor.Valid() && cursor.key() <= 6; cursor.Next()) {
    ASSERT_TRUE(cursor.ReadInto(&scratch).ok());
    const auto row = cursor.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(scratch.scalar(0), (*row)[0].AsInt());
    const auto vals = scratch.array(1);
    EXPECT_TRUE(std::equal(vals.begin(), vals.end(),
                           (*row)[1].AsArray().begin(),
                           (*row)[1].AsArray().end()));
    ++seen;
  }
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_EQ(seen, 3);  // Keys 4, 5, 6.
}

// A walk that faults mid-range must surface the fault — through ReadInto
// or through status() once the cursor ends — never as a short clean scan.
TEST_F(CursorTest, FaultedWalkSurfacesTheFault) {
  RowScratch scratch;
  auto cursor = table_->Seek(0, db_.buffer_pool());
  ASSERT_TRUE(cursor.Valid());
  ASSERT_TRUE(cursor.ReadInto(&scratch).ok());
  FaultPolicy faults;
  faults.seed = 9;
  faults.transient_error_prob = 1.0;
  db_.device()->set_fault_policy(faults);
  ASSERT_TRUE(db_.buffer_pool()->DropCaches().ok());
  Status fault = Status::Ok();
  for (cursor.Next(); cursor.Valid(); cursor.Next()) {
    fault = cursor.ReadInto(&scratch);
    if (!fault.ok()) break;
  }
  if (fault.ok()) fault = cursor.status();
  EXPECT_EQ(fault.code(), Status::Code::kIoError);
}

// ---------- Checksums, fault injection, and retries ----------

TEST(ChecksumPageTest, StampAndVerifyRoundTrip) {
  PageStore store;
  const PageId a = store.Allocate();
  store.page(a).bytes[100] = 42;
  EXPECT_FALSE(store.stamped(a));  // Dirty until sealed.
  store.StampChecksums();
  EXPECT_TRUE(store.stamped(a));
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device);
  auto page = pool.Fetch(a);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ((*page)->bytes[100], 42);
  EXPECT_EQ(pool.checksum_errors(), 0u);
}

TEST(ChecksumPageTest, LatentCorruptionIsDetectedAndQuarantined) {
  PageStore store;
  const PageId a = store.Allocate();
  const PageId b = store.Allocate();
  store.page(a).bytes[0] = 1;
  store.page(b).bytes[0] = 2;
  store.StampChecksums();
  // Flip a stored bit WITHOUT restamping: latent media corruption.
  store.CorruptBitForTest(a, 8 * 500 + 3);
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device);
  auto bad = pool.Fetch(a);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kCorruption);
  EXPECT_GT(pool.checksum_errors(), 0u);
  // All retries saw the same bad checksum, so the page is quarantined:
  // the next fetch fails immediately without more device reads.
  EXPECT_EQ(pool.quarantined_pages(), 1u);
  const uint64_t reads_before = device.reads();
  EXPECT_FALSE(pool.Fetch(a).ok());
  EXPECT_EQ(device.reads(), reads_before);
  // The healthy page is unaffected.
  EXPECT_TRUE(pool.Fetch(b).ok());
  // ClearQuarantine gives the page another chance (still corrupt here).
  pool.ClearQuarantine();
  EXPECT_EQ(pool.quarantined_pages(), 0u);
  EXPECT_FALSE(pool.Fetch(a).ok());
}

TEST(FaultPolicyTest, TransientErrorsAreRetriedToSuccess) {
  PageStore store;
  const PageId a = store.Allocate();
  store.page(a).bytes[7] = 99;
  store.StampChecksums();
  StorageDevice device(DeviceProfile::Ram());
  FaultPolicy faults;
  faults.seed = 7;
  faults.transient_error_prob = 0.4;
  device.set_fault_policy(faults);
  BufferPool pool(&store, &device);
  // With p=0.4 and 4 attempts per fetch, 200 cold fetches succeed with
  // overwhelming probability; every one must return the true bytes.
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.DropCaches().ok());
    auto page = pool.Fetch(a);
    if (!page.ok()) {
      ++failures;
      continue;
    }
    EXPECT_EQ((*page)->bytes[7], 99);
  }
  EXPECT_LE(failures, 5);
  EXPECT_GT(pool.retries(), 0u);       // Some first attempts failed...
  EXPECT_GT(device.read_errors(), 0u);  // ...and the device recorded them.
  EXPECT_EQ(pool.checksum_errors(), 0u);
  EXPECT_EQ(pool.quarantined_pages(), 0u);  // IoErrors never quarantine.
}

TEST(FaultPolicyTest, BackoffIsChargedAsVirtualTime) {
  PageStore store;
  const PageId a = store.Allocate();
  store.StampChecksums();
  StorageDevice device(DeviceProfile::Ram());
  FaultPolicy faults;
  faults.seed = 3;
  faults.transient_error_prob = 1.0;  // Every read fails.
  device.set_fault_policy(faults);
  BufferPool pool(&store, &device);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ns = 1000;
  pool.set_retry_policy(retry);
  EXPECT_FALSE(pool.Fetch(a).ok());
  // Two retries: 1000 + 2000 ns of backoff beyond the read charges.
  EXPECT_GE(device.total_ns(), 3000u);
  EXPECT_EQ(pool.retries(), 2u);
}

TEST(FaultPolicyTest, StickyBadPageStaysBad) {
  PageStore store;
  const PageId a = store.Allocate();
  store.StampChecksums();
  StorageDevice device(DeviceProfile::Ram());
  FaultPolicy faults;
  faults.seed = 5;
  faults.sticky_error_prob = 1.0;  // First touch marks the page bad forever.
  device.set_fault_policy(faults);
  BufferPool pool(&store, &device);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.DropCaches().ok());
    auto page = pool.Fetch(a);
    ASSERT_FALSE(page.ok());
    EXPECT_EQ(page.status().code(), Status::Code::kIoError);
  }
}

TEST(FaultPolicyTest, InjectedCorruptionIsCaughtByChecksum) {
  PageStore store;
  const PageId a = store.Allocate();
  store.page(a).bytes[11] = 5;
  store.StampChecksums();
  StorageDevice device(DeviceProfile::Ram());
  FaultPolicy faults;
  faults.seed = 11;
  faults.corrupt_prob = 1.0;  // Every delivered frame has a flipped bit.
  device.set_fault_policy(faults);
  BufferPool pool(&store, &device);
  auto page = pool.Fetch(a);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), Status::Code::kCorruption);
  EXPECT_GT(device.corruptions_injected(), 0u);
  // The authoritative store copy is untouched: disabling faults heals it.
  device.set_fault_policy(FaultPolicy{});
  pool.ClearQuarantine();
  ASSERT_TRUE(pool.DropCaches().ok());
  auto healed = pool.Fetch(a);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ((*healed)->bytes[11], 5);
}

TEST(BufferPoolTest, FetchBeyondStoreIsCorruption) {
  PageStore store;
  store.Allocate();
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device);
  auto r = pool.Fetch(57);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

TEST(BufferPoolTest, DropCachesResetsDeviceLocality) {
  PageStore store;
  for (int i = 0; i < 3; ++i) store.Allocate();
  StorageDevice device(DeviceProfile::Hdd7200());
  BufferPool pool(&store, &device);
  EXPECT_TRUE(pool.Fetch(0).ok());
  EXPECT_TRUE(pool.Fetch(1).ok());  // Sequential after 0.
  EXPECT_EQ(device.sequential_reads(), 1u);
  ASSERT_TRUE(pool.DropCaches().ok());
  device.ResetStats();
  // Page 2 would look sequential after page 1 if locality survived the
  // cache drop; a real restart loses the head position.
  EXPECT_TRUE(pool.Fetch(2).ok());
  EXPECT_EQ(device.sequential_reads(), 0u);
}

TEST(HeapFileTest, GarbageLocatorIsCorruptionNotCrash) {
  PageStore store;
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device);
  const Schema schema{{"a", ColumnType::kInt32}};
  HeapFile heap(&store);
  heap.Append(Row{Value(1)}, schema);
  store.StampChecksums();
  EXPECT_FALSE(heap.Read({1u << 30, 4}, schema, &pool).ok());
  EXPECT_FALSE(heap.Read({0, kMaxRowBytes + 1}, schema, &pool).ok());
  EXPECT_FALSE(heap.Read({0, 9}, schema, &pool).ok());  // Trailing bytes.
}

TEST(EngineDatabaseTest, RejectsDuplicateTable) {
  EngineDatabase db(DeviceProfile::Ram());
  ASSERT_TRUE(db.CreateTable("x", Schema{{"a", ColumnType::kInt32}}).ok());
  EXPECT_FALSE(db.CreateTable("x", Schema{{"a", ColumnType::kInt32}}).ok());
  EXPECT_NE(db.FindTable("x"), nullptr);
  EXPECT_EQ(db.FindTable("y"), nullptr);
}

TEST(EngineDatabaseTest, BulkLoadValidatesKeysAndArity) {
  EngineDatabase db(DeviceProfile::Ram());
  auto table = db.CreateTable("x", Schema{{"a", ColumnType::kInt32}});
  ASSERT_TRUE(table.ok());
  std::vector<std::pair<IndexKey, Row>> out_of_order{{2, {Value(2)}},
                                                     {1, {Value(1)}}};
  EXPECT_FALSE((*table)->BulkLoad(std::move(out_of_order)).ok());

  auto table2 = db.CreateTable("y", Schema{{"a", ColumnType::kInt32}});
  std::vector<std::pair<IndexKey, Row>> bad_arity{
      {1, {Value(1), Value(2)}}};
  EXPECT_FALSE((*table2)->BulkLoad(std::move(bad_arity)).ok());
}

TEST(EngineDatabaseTest, SizeAccounting) {
  EngineDatabase db(DeviceProfile::Ram());
  auto table = db.CreateTable("x", Schema{{"a", ColumnType::kInt32}});
  std::vector<std::pair<IndexKey, Row>> rows;
  for (int32_t i = 0; i < 100; ++i) rows.emplace_back(i, Row{Value(i)});
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  EXPECT_EQ((*table)->num_rows(), 100u);
  EXPECT_GT(db.total_size_bytes(), 0u);
  EXPECT_EQ(db.table_names(), std::vector<std::string>{"x"});
}

}  // namespace
}  // namespace ptldb
