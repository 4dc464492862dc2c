/// Coherence tests for the per-transaction held-lock cache and batched
/// path acquisition (`LockManager::AcquirePath`).
///
/// The cache's safety argument (see txn_lock_cache.h) rests on a short list
/// of rules; each test below pins one of them:
///   - a hit never touches a shard, and only answers covered requests;
///   - Release / Downgrade / ReleaseAll / a wound all drop the cached mode
///     before it could answer stale;
///   - cache hits and releases balance against shard-side hold counts
///     (rule 4).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/txn_lock_cache.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kR1{1, 100};
constexpr ResourceId kR2{2, 200};

TEST(TxnLockCacheTest, CoveredReacquisitionHitsWithoutShardTraffic) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  const uint64_t slow_before = lm.stats().requests.value();

  // Equal and weaker re-acquisitions are served by the cache.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIS, {}, &cache).ok());
  EXPECT_EQ(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.stats().cache_hits.value(), 2u);

  // Rule 4: cache hits are consumed by releases before the shard-side
  // hold count is touched, so the books balance exactly.
  ASSERT_TRUE(lm.Release(1, kR1, &cache).ok());
  ASSERT_TRUE(lm.Release(1, kR1, &cache).ok());
  ASSERT_TRUE(lm.Release(1, kR1, &cache).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kNL);
  EXPECT_EQ(lm.NumEntries(), 0u);
  lm.DetachCache(1);
}

TEST(TxnLockCacheTest, StrongerRequestNeverAnsweredFromCache) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  const uint64_t slow_before = lm.stats().requests.value();

  // S does not cover X: the request must reach the shard and convert.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, &cache).ok());
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kX);

  // The slow path refreshed the entry: X now hits.
  const uint64_t hits_before = lm.stats().cache_hits.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, &cache).ok());
  EXPECT_EQ(lm.stats().cache_hits.value(), hits_before + 1);
  lm.ReleaseAll(1);
  lm.DetachCache(1);
}

TEST(TxnLockCacheTest, ReleaseDropsCachedMode) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  ASSERT_TRUE(lm.Release(1, kR1, &cache).ok());
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kNL);

  // A stale entry would answer this hit while the shard holds nothing.
  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kS);
  lm.ReleaseAll(1);
  lm.DetachCache(1);
}

TEST(TxnLockCacheTest, DowngradeDropsCachedMode) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, &cache).ok());
  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kS, &cache).ok());
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kNL);

  // If the stale X survived, this IX would hit the cache and never raise
  // the held mode; the slow path computes sup(S, IX) = SIX.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX, {}, &cache).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kSIX);
  lm.ReleaseAll(1);
  lm.DetachCache(1);
}

TEST(TxnLockCacheTest, ReleaseAllInvalidatesCache) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kIX, {}, &cache).ok());
  EXPECT_EQ(lm.ReleaseAll(1), 2u);
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kNL);
  EXPECT_EQ(cache.CachedMode(kR2), LockMode::kNL);

  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  lm.ReleaseAll(1);
  lm.DetachCache(1);
}

TEST(TxnLockCacheTest, ForeignReleasePathInvalidatesAttachedCache) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());
  // A release routed without the cache pointer (e.g. from recovery or an
  // administrative path) must still invalidate through the registry.
  ASSERT_TRUE(lm.Release(1, kR1).ok());
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kNL);
  lm.DetachCache(1);
}

TEST(TxnLockCacheTest, WoundInvalidatesCacheAndFailsNextAcquire) {
  LockManager::Options o;
  o.deadlock_policy = DeadlockPolicy::kWoundWait;
  LockManager lm(o);
  TxnLockCache cache;
  lm.AttachCache(5, &cache);

  // Younger txn 5 holds S with a warm cache entry.
  ASSERT_TRUE(lm.Acquire(5, kR1, LockMode::kS, {}, &cache).ok());
  ASSERT_TRUE(lm.Acquire(5, kR1, LockMode::kS, {}, &cache).ok());  // hit

  // Older txn 2 requests X: wounds 5 and blocks until it releases.
  Status st2;
  std::thread older([&] { st2 = lm.Acquire(2, kR1, LockMode::kX); });
  // Wait until the wound lands (the older txn enqueues first).
  for (int i = 0; i < 200; ++i) {
    if (lm.stats().waits.value() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The covered re-acquisition must NOT be answered from the cache: the
  // wound invalidated it and the slow path reports the abort.
  Status st5 = lm.Acquire(5, kR1, LockMode::kS, {}, &cache);
  EXPECT_TRUE(st5.IsAborted()) << st5;

  lm.ReleaseAll(5);
  older.join();
  EXPECT_TRUE(st2.ok()) << st2;
  lm.ReleaseAll(2);
  lm.DetachCache(5);
}

TEST(TxnLockCacheTest, LongRequestNeverPiggybacksOnShortHolder) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, &cache).ok());

  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, long_opts, &cache).ok());
  // The request reached the shard (the holder's duration must be
  // upgraded for crash survival; the cache may not absorb it).
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  std::vector<LongLockRecord> longs = lm.SnapshotLongLocks();
  ASSERT_EQ(longs.size(), 1u);
  EXPECT_EQ(longs[0].txn, 1u);

  // Once the holder is long, further long requests may hit.
  const uint64_t hits_before = lm.stats().cache_hits.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, long_opts, &cache).ok());
  EXPECT_EQ(lm.stats().cache_hits.value(), hits_before + 1);
  lm.ReleaseAll(1);
  lm.DetachCache(1);
}

// ---- The cache on its own (no lock manager) ------------------------------

TEST(TxnLockCacheSlotTest, MissesUntilNotedThenHitsOnlyCoveredModes) {
  TxnLockCache cache;
  EXPECT_FALSE(cache.TryHit(kR1, LockMode::kIS, false));
  cache.Note(kR1, LockMode::kIX, false);
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kIX);
  EXPECT_TRUE(cache.TryHit(kR1, LockMode::kIS, false));
  EXPECT_TRUE(cache.TryHit(kR1, LockMode::kIX, false));
  EXPECT_FALSE(cache.TryHit(kR1, LockMode::kS, false));
  EXPECT_FALSE(cache.TryHit(kR1, LockMode::kX, false));
  EXPECT_FALSE(cache.TryHit(kR2, LockMode::kIS, false));
  const std::vector<TxnLockCache::Slot> slots = cache.AuditSnapshot();
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].pending, 2u);  // the two hits, not the misses
}

TEST(TxnLockCacheSlotTest, NotesMergeToTheSupremum) {
  TxnLockCache cache;
  cache.Note(kR1, LockMode::kIS, false);
  cache.Note(kR1, LockMode::kIX, false);
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kIX);
  cache.Note(kR1, LockMode::kS, false);
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kSIX);
  cache.Note(kR1, LockMode::kIS, false);  // never weakens
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kSIX);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TxnLockCacheSlotTest, ReleasesConsumeOnlyPendingHits) {
  TxnLockCache cache;
  cache.Note(kR1, LockMode::kS, false);
  EXPECT_FALSE(cache.ConsumeRelease(kR1));  // the shard's own grant
  ASSERT_TRUE(cache.TryHit(kR1, LockMode::kS, false));
  ASSERT_TRUE(cache.TryHit(kR1, LockMode::kIS, false));
  EXPECT_TRUE(cache.ConsumeRelease(kR1));
  EXPECT_TRUE(cache.ConsumeRelease(kR1));
  EXPECT_FALSE(cache.ConsumeRelease(kR1));
  EXPECT_FALSE(cache.ConsumeRelease(kR2));
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kS);  // still held
}

TEST(TxnLockCacheSlotTest, LongHitsNeedALongSlot) {
  TxnLockCache cache;
  cache.Note(kR1, LockMode::kX, false);
  EXPECT_FALSE(cache.TryHit(kR1, LockMode::kS, true));
  EXPECT_TRUE(cache.TryHit(kR1, LockMode::kS, false));
  cache.Note(kR1, LockMode::kS, true);  // duration upgrade, mode kept
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kX);
  EXPECT_TRUE(cache.TryHit(kR1, LockMode::kS, true));
  EXPECT_TRUE(cache.TryHit(kR1, LockMode::kIS, false));
}

TEST(TxnLockCacheSlotTest, EraseDropsOneSlotAndKeepsTheRest) {
  TxnLockCache cache;
  const ResourceId r3{3, 300};
  cache.Note(kR1, LockMode::kIS, false);
  cache.Note(kR2, LockMode::kIX, false);
  cache.Note(r3, LockMode::kX, true);
  cache.Erase(kR1);  // not the last slot: the last one moves into it
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.CachedMode(kR1), LockMode::kNL);
  EXPECT_EQ(cache.CachedMode(kR2), LockMode::kIX);
  EXPECT_EQ(cache.CachedMode(r3), LockMode::kX);
  EXPECT_TRUE(cache.TryHit(r3, LockMode::kS, true));
  cache.Erase(kR1);  // absent: no effect
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TxnLockCacheSlotTest, InvalidationDiscardsEverySlotOnNextAccess) {
  TxnLockCache cache;
  cache.Note(kR1, LockMode::kS, false);
  cache.Note(kR2, LockMode::kIS, false);
  ASSERT_TRUE(cache.TryHit(kR1, LockMode::kS, false));
  std::thread foreign([&] { cache.Invalidate(); });
  foreign.join();
  // The audit view already trusts nothing; the owner drops the array.
  EXPECT_TRUE(cache.AuditSnapshot().empty());
  EXPECT_FALSE(cache.TryHit(kR2, LockMode::kIS, false));
  EXPECT_EQ(cache.size(), 0u);
  // Pending hits went with the slots: a release now reaches the shard.
  EXPECT_FALSE(cache.ConsumeRelease(kR1));
  // Grants noted after the invalidation are trusted again.
  cache.Note(kR2, LockMode::kIS, false);
  EXPECT_TRUE(cache.TryHit(kR2, LockMode::kIS, false));
  EXPECT_EQ(cache.AuditSnapshot().size(), 1u);
}

TEST(TxnLockCacheSlotTest, FullCacheLeavesNewResourcesUncached) {
  TxnLockCache cache;
  for (uint64_t i = 0; i < TxnLockCache::kMaxEntries; ++i) {
    cache.Note(ResourceId{5, i}, LockMode::kIS, false);
  }
  ASSERT_EQ(cache.size(), TxnLockCache::kMaxEntries);
  const ResourceId extra{5, TxnLockCache::kMaxEntries};
  cache.Note(extra, LockMode::kS, false);
  EXPECT_EQ(cache.size(), TxnLockCache::kMaxEntries);
  EXPECT_FALSE(cache.TryHit(extra, LockMode::kS, false));
  // Slots already cached still merge upgrades.
  cache.Note(ResourceId{5, 0}, LockMode::kX, false);
  EXPECT_EQ(cache.CachedMode(ResourceId{5, 0}), LockMode::kX);
  // Erasing one frees room for the next grant.
  cache.Erase(ResourceId{5, 1});
  cache.Note(extra, LockMode::kS, false);
  EXPECT_EQ(cache.CachedMode(extra), LockMode::kS);
}

TEST(TxnLockCacheSlotTest, ClearForgetsSlotsAndAbsorbsAnInvalidation) {
  TxnLockCache cache;
  cache.Note(kR1, LockMode::kS, false);
  ASSERT_TRUE(cache.TryHit(kR1, LockMode::kS, false));
  cache.Invalidate();
  cache.Clear();
  EXPECT_TRUE(cache.AuditSnapshot().empty());
  EXPECT_FALSE(cache.ConsumeRelease(kR1));
  // Clear caught up with the epoch, so the next grant is trusted at once.
  cache.Note(kR1, LockMode::kIS, false);
  EXPECT_TRUE(cache.TryHit(kR1, LockMode::kIS, false));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AcquirePathTest, LocksEveryLevelAndWarmsCache) {
  LockManager lm;
  TxnLockCache cache;
  lm.AttachCache(1, &cache);

  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kX, {}, &cache).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, path[1]), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, path[2]), LockMode::kX);

  // The whole second pass is answered from the cache.
  const uint64_t slow_before = lm.stats().requests.value();
  const uint64_t hits_before = lm.stats().cache_hits.value();
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kX, {}, &cache).ok());
  EXPECT_EQ(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.stats().cache_hits.value(), hits_before + 3);

  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumEntries(), 0u);
  lm.DetachCache(1);
}

TEST(AcquirePathTest, SharedLeafUsesIntentionSharedPrefix) {
  LockManager lm;
  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kS).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kIS);
  EXPECT_EQ(lm.HeldMode(1, path[1]), LockMode::kIS);
  EXPECT_EQ(lm.HeldMode(1, path[2]), LockMode::kS);
  lm.ReleaseAll(1);
}

TEST(AcquirePathTest, ConflictingLeafBlocksUntilHolderReleases) {
  LockManager lm;
  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  ASSERT_TRUE(lm.Acquire(2, path[2], LockMode::kX).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted);
  lm.ReleaseAll(2);
  blocked.join();
  EXPECT_TRUE(granted);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(AcquirePathTest, RejectsInvalidInput) {
  LockManager lm;
  const std::vector<ResourceId> path = {{0, 1}};
  EXPECT_TRUE(
      lm.AcquirePath(kInvalidTxn, path, LockMode::kS).IsInvalidArgument());
  EXPECT_TRUE(lm.AcquirePath(1, {}, LockMode::kS).IsInvalidArgument());
  EXPECT_TRUE(lm.AcquirePath(1, path, LockMode::kNL).IsInvalidArgument());
}

TEST(AcquirePathTest, LongPathsFallBackToPerResourceAcquisition) {
  LockManager lm;
  std::vector<ResourceId> path;
  for (uint64_t i = 0; i < 80; ++i) path.push_back(ResourceId{3, i});
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, path[79]), LockMode::kX);
  EXPECT_EQ(lm.ReleaseAll(1), 80u);
}

TEST(LockManagerShardingTest, ShardCountClampedToPowerOfTwo) {
  auto shards_with = [](int n) {
    LockManager::Options o;
    o.num_shards = n;
    return LockManager(o).NumShards();
  };
  EXPECT_EQ(shards_with(1), 1u);
  EXPECT_EQ(shards_with(3), 4u);
  EXPECT_EQ(shards_with(16), 16u);
  EXPECT_EQ(shards_with(17), 32u);
}

TEST(LockManagerShardingTest, ZeroShardsDerivesFromHardwareConcurrency) {
  // num_shards <= 0 derives the count from the machine (4x the logical
  // CPU count, power of two, clamped to [16, 1024]).
  const size_t derived =
      LockManager::DerivedNumShards(std::thread::hardware_concurrency());
  auto shards_with = [](int n) {
    LockManager::Options o;
    o.num_shards = n;
    return LockManager(o).NumShards();
  };
  EXPECT_EQ(shards_with(0), derived);
  EXPECT_EQ(shards_with(-5), derived);
}

TEST(LockManagerShardingTest, DerivedNumShardsScalesWithCores) {
  // Unknown concurrency: the historical default.
  EXPECT_EQ(LockManager::DerivedNumShards(0), 16u);
  // Small hosts keep the floor of 16.
  EXPECT_EQ(LockManager::DerivedNumShards(1), 16u);
  EXPECT_EQ(LockManager::DerivedNumShards(4), 16u);
  // 4x over-provisioning, rounded up to a power of two.
  EXPECT_EQ(LockManager::DerivedNumShards(8), 32u);
  EXPECT_EQ(LockManager::DerivedNumShards(12), 64u);
  EXPECT_EQ(LockManager::DerivedNumShards(16), 64u);
  EXPECT_EQ(LockManager::DerivedNumShards(24), 128u);
  EXPECT_EQ(LockManager::DerivedNumShards(64), 256u);
  // Huge hosts hit the 1024 ceiling.
  EXPECT_EQ(LockManager::DerivedNumShards(1000), 1024u);
  EXPECT_EQ(LockManager::DerivedNumShards(100000), 1024u);
}

TEST(LockManagerWakeupTest, DowngradePromotesEveryCompatibleQueuedWaiter) {
  // Per-waiter wakeups must promote *all* waiters the narrower mode no
  // longer blocks, not just one (a broadcast CV hid missed-wakeup bugs).
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());

  std::atomic<int> granted{0};
  std::thread r1([&] {
    ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
    granted.fetch_add(1);
  });
  std::thread r2([&] {
    ASSERT_TRUE(lm.Acquire(3, kR1, LockMode::kIS).ok());
    granted.fetch_add(1);
  });
  // Wait until both requests are queued.
  for (int i = 0; i < 500 && lm.stats().waits.value() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(granted.load(), 0);

  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kS).ok());
  r1.join();
  r2.join();
  EXPECT_EQ(granted.load(), 2);
  EXPECT_EQ(lm.GroupMode(kR1), LockMode::kS);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
}

}  // namespace
}  // namespace codlock::lock
