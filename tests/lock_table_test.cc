/// \file lock_table_test.cc
/// \brief The plain lock table: every grant decision between two
/// holders, bucket chains under unlinking, and pooled entry nodes.
///
/// Every request is decided under its shard mutex (DESIGN.md §11), so
/// the (held, requested) mode sweeps below pin the §4.1 compatibility
/// matrix and in-place conversion exactly as the lock manager applies
/// them.  A single-shard manager puts every resource into the same 256
/// bucket chains: long chains are then unlinked at their head, middle
/// and tail, and emptied entries pass through the per-shard node pool
/// (`kEntryPoolSize`) to unrelated keys.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/mode.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kR{4, 44};

constexpr LockMode kGrantable[] = {LockMode::kIS, LockMode::kIX, LockMode::kS,
                                   LockMode::kSIX, LockMode::kX};

AcquireOptions NoWait() {
  AcquireOptions o;
  o.wait = false;
  return o;
}

/// Spins until \p n requests are blocked inside \p lm (bounded: fails
/// the test instead of hanging).
void AwaitBlocked(const LockManager& lm, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lm.NumBlockedWaiters() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "only " << lm.NumBlockedWaiters() << " of " << n << " blocked";
    std::this_thread::yield();
  }
}

// ---- Grant decisions per mode pair ---------------------------------------

class HolderPairTest
    : public ::testing::TestWithParam<std::tuple<LockMode, LockMode>> {};

TEST_P(HolderPairTest, SecondTransactionGrantedIffCompatible) {
  const auto [held, wanted] = GetParam();
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, held).ok());

  Status st = lm.Acquire(2, kR, wanted, NoWait());
  if (Compatible(held, wanted)) {
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(lm.HeldMode(2, kR), wanted);
    EXPECT_EQ(lm.GroupMode(kR), Supremum(held, wanted));
  } else {
    EXPECT_TRUE(st.IsConflict()) << st;
    EXPECT_EQ(lm.HeldMode(2, kR), LockMode::kNL);
    EXPECT_EQ(lm.GroupMode(kR), held);
    // A waiting request of the same mode is granted once the holder
    // leaves, and takes over the entry alone.
    std::atomic<bool> granted{false};
    std::thread waiter([&] { granted = lm.Acquire(2, kR, wanted).ok(); });
    AwaitBlocked(lm, 1);
    lm.ReleaseAll(1);
    waiter.join();
    EXPECT_TRUE(granted);
    EXPECT_EQ(lm.GroupMode(kR), wanted);
  }
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

TEST_P(HolderPairTest, SameTransactionConvertsInPlaceToSupremum) {
  const auto [held, wanted] = GetParam();
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, held).ok());
  ASSERT_TRUE(lm.Acquire(1, kR, wanted, NoWait()).ok());
  const LockMode sup = Supremum(held, wanted);
  EXPECT_EQ(lm.HeldMode(1, kR), sup);
  EXPECT_EQ(lm.GroupMode(kR), sup);
  EXPECT_EQ(lm.LocksOf(1).size(), 1u);  // one holder, counted twice

  // A third party sees the converted mode, not the first one.
  Status st = lm.Acquire(2, kR, LockMode::kIS, NoWait());
  EXPECT_EQ(st.ok(), Compatible(sup, LockMode::kIS)) << st;
  lm.ReleaseAll(2);

  // Two acquisitions, two releases; the entry goes with the second.
  ASSERT_TRUE(lm.Release(1, kR).ok());
  EXPECT_EQ(lm.HeldMode(1, kR), sup);
  ASSERT_TRUE(lm.Release(1, kR).ok());
  EXPECT_EQ(lm.HeldMode(1, kR), LockMode::kNL);
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllGrantablePairs, HolderPairTest,
    ::testing::Combine(::testing::ValuesIn(kGrantable),
                       ::testing::ValuesIn(kGrantable)),
    [](const ::testing::TestParamInfo<HolderPairTest::ParamType>& pair) {
      return std::string(LockModeName(std::get<0>(pair.param))) + "_then_" +
             std::string(LockModeName(std::get<1>(pair.param)));
    });

// ---- Bucket chains and pooled nodes --------------------------------------

LockManager::Options OneShard() {
  LockManager::Options o;
  o.num_shards = 1;
  o.default_timeout_ms = 2'000;
  return o;
}

ResourceId Key(uint64_t i) { return ResourceId{9, i}; }
LockMode ModeOf(uint64_t i) { return kGrantable[i % 5]; }

TEST(LockTableChainTest, UnlinkingAnyChainPositionKeepsTheRestFindable) {
  // 2048 keys over 256 buckets: chains of ~8, each released in three
  // sweeps that between them cut every position of a chain.
  LockManager lm(OneShard());
  ASSERT_EQ(lm.NumShards(), 1u);
  constexpr uint64_t kKeys = 2048;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(lm.Acquire(1, Key(i), ModeOf(i)).ok());
  }
  ASSERT_EQ(lm.NumEntries(), kKeys);

  size_t live = kKeys;
  for (uint64_t phase = 0; phase < 3; ++phase) {
    // Alternate the direction so heads and tails both go first.
    for (uint64_t n = 0; n < kKeys; ++n) {
      const uint64_t i = phase % 2 == 0 ? n : kKeys - 1 - n;
      if (i % 3 != phase) continue;
      ASSERT_TRUE(lm.Release(1, Key(i)).ok());
      --live;
    }
    ASSERT_EQ(lm.NumEntries(), live);
    for (uint64_t i = 0; i < kKeys; ++i) {
      const LockMode expect = i % 3 <= phase ? LockMode::kNL : ModeOf(i);
      ASSERT_EQ(lm.HeldMode(1, Key(i)), expect) << "key " << i;
    }
  }
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

TEST(LockTableChainTest, PooledNodesCarryNoStateIntoTheirNextKey) {
  // Each round retires more nodes than the pool keeps, so later rounds
  // run on both reused and freshly allocated nodes.  A stale holder or
  // waiter left on a reused node would make the no-wait X fail.
  LockManager lm(OneShard());
  constexpr uint64_t kPerRound = 100;
  for (uint64_t round = 0; round < 10; ++round) {
    const TxnId owner = 100 + round;
    const TxnId other = 200 + round;
    for (uint64_t i = 0; i < kPerRound; ++i) {
      const ResourceId key = Key(round * kPerRound + i);
      ASSERT_TRUE(lm.Acquire(owner, key, LockMode::kX, NoWait()).ok())
          << "round " << round << " key " << i;
      EXPECT_TRUE(lm.Acquire(other, key, LockMode::kIS, NoWait()).IsConflict());
    }
    // A timed-out waiter leaves its node too: the next round's keys
    // may land on it.
    AcquireOptions brief;
    brief.timeout_ms = 5;
    EXPECT_TRUE(
        lm.Acquire(other, Key(round * kPerRound), LockMode::kS, brief)
            .IsTimeout());
    EXPECT_EQ(lm.LocksOf(owner).size(), kPerRound);
    EXPECT_TRUE(lm.LocksOf(other).empty());
    EXPECT_EQ(lm.ReleaseAll(owner), kPerRound);
    EXPECT_EQ(lm.NumEntries(), 0u);
    EXPECT_EQ(lm.GroupMode(Key(round * kPerRound)), LockMode::kNL);
  }
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

TEST(LockTableChainTest, PinnedEntryOutlivesChurnAroundIt) {
  // A standing long S holder shares the shard's chains with keys that
  // are created and retired fifty times over.
  LockManager lm(OneShard());
  const ResourceId pinned = Key(0);
  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  ASSERT_TRUE(lm.Acquire(1, pinned, LockMode::kS, long_opts).ok());
  for (int round = 0; round < 50; ++round) {
    for (uint64_t i = 1; i <= 64; ++i) {
      ASSERT_TRUE(lm.Acquire(2, Key(i), LockMode::kX).ok());
    }
    ASSERT_EQ(lm.ReleaseAll(2), 64u);
    ASSERT_EQ(lm.NumEntries(), 1u) << "round " << round;
    ASSERT_EQ(lm.HeldMode(1, pinned), LockMode::kS);
    ASSERT_TRUE(lm.Acquire(3, pinned, LockMode::kX, NoWait()).IsConflict());
  }
  const std::vector<LongLockRecord> longs = lm.SnapshotLongLocks();
  ASSERT_EQ(longs.size(), 1u);
  EXPECT_EQ(longs[0].txn, 1u);
  EXPECT_EQ(longs[0].resource, pinned);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockTableChainTest, SnapshotsListEveryChainedHolder) {
  LockManager lm(OneShard());
  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  constexpr uint64_t kKeys = 600;
  for (uint64_t i = 0; i < kKeys; ++i) {
    // Two sharers per key; every third key's second sharer is long.
    ASSERT_TRUE(lm.Acquire(1, Key(i), LockMode::kIS).ok());
    ASSERT_TRUE(lm.Acquire(2, Key(i), LockMode::kS,
                           i % 3 == 0 ? long_opts : AcquireOptions())
                    .ok());
  }
  EXPECT_EQ(lm.SnapshotAllLocks().size(), 2 * kKeys);
  const std::vector<LongLockRecord> longs = lm.SnapshotLongLocks();
  EXPECT_EQ(longs.size(), kKeys / 3);
  for (const LongLockRecord& r : longs) {
    EXPECT_EQ(r.txn, 2u);
    EXPECT_EQ(r.mode, LockMode::kS);
    EXPECT_EQ(r.resource.instance % 3, 0u);
  }
  EXPECT_EQ(lm.LongLocksOf(2).size(), kKeys / 3);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.SnapshotAllLocks().empty());
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockTableChainTest, FailedPathLeavesNoEmptyEntries) {
  // The path's root and middle are granted in the batch pass; the leaf
  // conflicts, so the roll-back must unlink the two entries it made.
  LockManager lm(OneShard());
  const ResourceId path[] = {Key(1), Key(2), Key(3)};
  ASSERT_TRUE(lm.Acquire(1, path[2], LockMode::kX).ok());
  Status st = lm.AcquirePath(2, path, LockMode::kS, NoWait());
  EXPECT_TRUE(st.IsConflict()) << st;
  EXPECT_EQ(lm.NumEntries(), 1u);
  EXPECT_EQ(lm.GroupMode(path[0]), LockMode::kNL);
  EXPECT_EQ(lm.GroupMode(path[1]), LockMode::kNL);
  EXPECT_TRUE(lm.LocksOf(2).empty());
  lm.ReleaseAll(1);
  ASSERT_TRUE(lm.AcquirePath(2, path, LockMode::kS, NoWait()).ok());
  EXPECT_EQ(lm.HeldMode(2, path[0]), LockMode::kIS);
  EXPECT_EQ(lm.HeldMode(2, path[2]), LockMode::kS);
  EXPECT_EQ(lm.ReleaseAll(2), 3u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockTableChainTest, DrainForShutdownKillsWaitersOnEveryChain) {
  LockManager lm(OneShard());
  constexpr int kWaiters = 4;
  for (int i = 0; i < kWaiters; ++i) {
    ASSERT_TRUE(lm.Acquire(1, Key(i), LockMode::kX).ok());
  }
  std::atomic<int> aborted{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      AcquireOptions forever;
      forever.timeout_ms = AcquireOptions::kTimeoutInfinite;
      if (lm.Acquire(static_cast<TxnId>(10 + i), Key(i), LockMode::kS, forever)
              .IsAborted()) {
        ++aborted;
      }
    });
  }
  AwaitBlocked(lm, kWaiters);
  EXPECT_EQ(lm.DrainForShutdown(), static_cast<size_t>(kWaiters));
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(aborted.load(), kWaiters);
  EXPECT_EQ(lm.NumBlockedWaiters(), 0u);
  // The killed waiters left their entries to the holder alone.
  EXPECT_EQ(lm.NumEntries(), static_cast<size_t>(kWaiters));
  EXPECT_EQ(lm.ReleaseAll(1), static_cast<size_t>(kWaiters));
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockTableChainTest, ConcurrentChurnInOneShardDrains) {
  // Four threads create and retire their own keys in one shard's chains
  // while all of them share one IS-held key, so every unlink and pool
  // hand-off runs next to other threads' chain walks.
  LockManager lm(OneShard());
  const ResourceId shared = Key(1'000'000);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const TxnId txn = static_cast<TxnId>(t + 1);
      for (uint64_t i = 0; i < 500 && !failed; ++i) {
        const ResourceId own = Key(static_cast<uint64_t>(t) * 10'000 + i % 50);
        if (!lm.Acquire(txn, shared, LockMode::kIS).ok() ||
            !lm.Acquire(txn, own, ModeOf(i)).ok() ||
            lm.HeldMode(txn, own) != ModeOf(i)) {
          failed = true;
        }
        if (i % 4 == 3) {
          lm.ReleaseAll(txn);
        } else if (!lm.Release(txn, own).ok()) {
          failed = true;
        }
      }
      lm.ReleaseAll(txn);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

}  // namespace
}  // namespace codlock::lock
