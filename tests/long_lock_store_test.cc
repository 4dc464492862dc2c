/// Tests for the crash-consistent `LongLockStore`: framed-generation
/// persistence (image + delta log), torn-write salvage at every byte
/// offset, corruption recovery, Status propagation from Save/LoadFromFile,
/// the store fault points on the image path (open-temp, write-frame, sync,
/// rename, after-rename) and the append path (write-frame, sync), O(change)
/// saves, concurrent saves, and the lock manager's long-lock change set.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault_injector.h"
#include "lock/lock_manager.h"
#include "lock/long_lock_store.h"
#include "util/crc32.h"

namespace codlock::lock {
namespace {

AcquireOptions LongOpts() {
  AcquireOptions o;
  o.duration = LockDuration::kLong;
  return o;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class LongLockStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("codlock_store_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "locks.bin").string();
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  /// Builds a store file holding generations 1 and 2 (3 records total)
  /// and returns its bytes.  With \p reload_between the second save is
  /// the first after a load, so the file holds two images; without it
  /// the second save appends a delta behind the first image.
  std::string SeedTwoGenerations(bool reload_between = true) {
    LockManager lm;
    LongLockStore store;
    store.SetBackingFile(path_);
    EXPECT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
    EXPECT_TRUE(lm.Acquire(1, {2, 7}, LockMode::kS, LongOpts()).ok());
    EXPECT_TRUE(store.Save(lm).ok());  // generation 1
    if (reload_between) {
      EXPECT_TRUE(store.LoadFromFile(path_).ok());
    }
    EXPECT_TRUE(lm.Acquire(2, {3, 9}, LockMode::kIX, LongOpts()).ok());
    EXPECT_TRUE(store.Save(lm).ok());  // generation 2
    return ReadFile(path_);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(LongLockStoreTest, RoundTripThroughFile) {
  SeedTwoGenerations();

  LongLockStore loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path_).ok());
  EXPECT_EQ(loaded.generation(), 2u);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_FALSE(loaded.last_load().salvaged);
  EXPECT_EQ(loaded.last_load().discarded_bytes, 0u);

  LockManager fresh;
  ASSERT_TRUE(loaded.Restore(&fresh).ok());
  EXPECT_EQ(fresh.HeldMode(1, {1, 1}), LockMode::kX);
  EXPECT_EQ(fresh.HeldMode(1, {2, 7}), LockMode::kS);
  EXPECT_EQ(fresh.HeldMode(2, {3, 9}), LockMode::kIX);
}

TEST_F(LongLockStoreTest, MissingFileIsNotFound) {
  LongLockStore store;
  EXPECT_TRUE(store.LoadFromFile(path_).IsNotFound());
}

TEST_F(LongLockStoreTest, TruncationAtEveryOffsetNeverFailsLoad) {
  const std::string image = SeedTwoGenerations();
  ASSERT_FALSE(image.empty());
  const std::string cut = (dir_ / "cut.bin").string();

  size_t recovered_g1 = 0, recovered_g2 = 0;
  for (size_t len = 0; len <= image.size(); ++len) {
    WriteFile(cut, image.substr(0, len));
    LongLockStore probe;
    Status s = probe.LoadFromFile(cut);
    ASSERT_TRUE(s.ok()) << "offset " << len << ": " << s.ToString();
    const uint64_t gen = probe.generation();
    ASSERT_LE(gen, 2u) << "offset " << len;
    if (gen == 1) {
      ++recovered_g1;
      EXPECT_EQ(probe.size(), 2u) << "offset " << len;
    } else if (gen == 2) {
      ++recovered_g2;
      EXPECT_EQ(probe.size(), 3u) << "offset " << len;
    }
    // A recovered generation is always complete: salvage may drop the torn
    // suffix, never part of a block.
    if (len < image.size()) {
      EXPECT_TRUE(probe.last_load().salvaged ||
                  probe.last_load().discarded_bytes == 0)
          << "offset " << len;
    }
  }
  // Once generation 1's block is complete, truncations within generation
  // 2's block recover generation 1; the full image recovers generation 2.
  EXPECT_GT(recovered_g1, 0u);
  EXPECT_EQ(recovered_g2, 1u);
}

TEST_F(LongLockStoreTest, CorruptedNewestBlockSalvagesPrevious) {
  std::string image = SeedTwoGenerations();
  // Flip a byte in the last (generation 2) block's record area.
  image[image.size() - 10] ^= 0x5A;
  WriteFile(path_, image);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 1u);
  EXPECT_EQ(probe.size(), 2u);
  EXPECT_TRUE(probe.last_load().salvaged);
  EXPECT_GT(probe.last_load().discarded_bytes, 0u);
}

TEST_F(LongLockStoreTest, GarbageFileRecoversEmptyGenerationZero) {
  WriteFile(path_, "this is not a lock store at all, not even close");
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 0u);
  EXPECT_EQ(probe.size(), 0u);
  EXPECT_TRUE(probe.last_load().salvaged);
}

TEST_F(LongLockStoreTest, SaveWithoutBackingFileStaysInMemory) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  LongLockStore store;
  ASSERT_TRUE(store.Save(lm).ok());
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(LongLockStoreTest, GenerationsContinueAcrossLoad) {
  SeedTwoGenerations();
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(5, {4, 4}, LockMode::kX, LongOpts()).ok());

  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.LoadFromFile(path_).ok());
  ASSERT_TRUE(store.Save(lm).ok());
  EXPECT_EQ(store.generation(), 3u);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 3u);
  EXPECT_EQ(probe.size(), 1u);
}

// --- Format versions and fence epochs ----------------------------------

void PutU32(std::string& s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

/// Hand-encodes a v1 ("CGN1") block exactly as the pre-lease store wrote
/// it: no epoch table, CRC over everything after the magic.
std::string EncodeV1Block(uint64_t generation,
                          const std::vector<LongLockRecord>& records) {
  std::string block;
  PutU32(block, 0x314E4743);  // "CGN1"
  PutU64(block, generation);
  PutU32(block, static_cast<uint32_t>(records.size()));
  for (const LongLockRecord& r : records) {
    PutU64(block, r.txn);
    PutU32(block, r.resource.node);
    PutU64(block, r.resource.instance);
    block.push_back(static_cast<char>(r.mode));
  }
  PutU32(block, Crc32(std::string_view(block.data() + 4, block.size() - 4)));
  return block;
}

TEST_F(LongLockStoreTest, V1FormatStillLoads) {
  // A store file written before the lease subsystem existed: one v1
  // block, no fence-epoch table.
  WriteFile(path_, EncodeV1Block(7, {{1, {1, 1}, LockMode::kX},
                                     {1, {2, 7}, LockMode::kS}}));

  LongLockStore loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path_).ok());
  EXPECT_EQ(loaded.generation(), 7u);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_FALSE(loaded.last_load().salvaged);

  // v1 carries no epochs: every root starts at the default epoch 0.
  EXPECT_TRUE(loaded.FenceEpochs().empty());
  EXPECT_EQ(loaded.FenceEpochOf({1, 1}), 0u);

  LockManager fresh;
  ASSERT_TRUE(loaded.Restore(&fresh).ok());
  EXPECT_EQ(fresh.HeldMode(1, {1, 1}), LockMode::kX);
  EXPECT_EQ(fresh.HeldMode(1, {2, 7}), LockMode::kS);
}

TEST_F(LongLockStoreTest, V1UpgradesToV2OnNextSave) {
  WriteFile(path_, EncodeV1Block(3, {{1, {1, 1}, LockMode::kX}}));

  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.LoadFromFile(path_).ok());
  EXPECT_EQ(store.BumpFenceEpoch({1, 1}), 1u);

  LockManager lm;
  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Save(lm).ok());  // writes v2: generation 4 + epochs

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 4u);
  EXPECT_EQ(probe.size(), 1u);
  EXPECT_EQ(probe.FenceEpochOf({1, 1}), 1u);
}

TEST_F(LongLockStoreTest, FenceEpochsPersistAcrossSaveAndLoad) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());

  LongLockStore store;
  store.SetBackingFile(path_);
  EXPECT_EQ(store.BumpFenceEpoch({1, 1}), 1u);
  EXPECT_EQ(store.BumpFenceEpoch({1, 1}), 2u);
  EXPECT_EQ(store.BumpFenceEpoch({2, 7}), 1u);
  ASSERT_TRUE(store.Save(lm).ok());

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.FenceEpochOf({1, 1}), 2u);
  EXPECT_EQ(probe.FenceEpochOf({2, 7}), 1u);
  EXPECT_EQ(probe.FenceEpochOf({3, 3}), 0u);  // never bumped
  EXPECT_EQ(probe.FenceEpochs().size(), 2u);

  // The epoch table rides the same torn-write discipline as the records:
  // a fresh save after another bump supersedes, and reloading is stable.
  EXPECT_EQ(probe.BumpFenceEpoch({2, 7}), 2u);
}

// --- Fault points in the save path -------------------------------------

struct SaveFaultCase {
  const char* point;
  fault::FaultKind kind;
  /// Generation a post-fault load must recover: 1 = previous survives,
  /// 2 = new state already durable despite the error status.
  uint64_t expect_generation;
};

class SaveFaultTest : public LongLockStoreTest,
                      public ::testing::WithParamInterface<SaveFaultCase> {};

TEST_P(SaveFaultTest, FailedSaveIsReportedAndRecoverable) {
  const SaveFaultCase& c = GetParam();
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Save(lm).ok());  // generation 1, durable
  // The first save after a load writes an image (temp + rename), so the
  // generation-2 attempt below runs through every image-path point.
  ASSERT_TRUE(store.LoadFromFile(path_).ok());

  fault::FaultSpec spec;
  spec.kind = c.kind;
  spec.trigger = fault::Trigger::Once();
  fault::ScopedFault f(c.point, spec);
  ASSERT_TRUE(f.valid()) << c.point;

  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kX, LongOpts()).ok());
  Status saved = store.Save(lm);  // generation 2 attempt dies at the point
  EXPECT_FALSE(saved.ok()) << c.point;
  if (c.kind == fault::FaultKind::kCrash ||
      c.kind == fault::FaultKind::kTornWrite) {
    EXPECT_TRUE(fault::IsInjectedCrash(saved)) << saved.ToString();
  }

  // Whatever the crash left on disk, the load recovers a complete
  // generation — the previous one, or the new one if the rename made it.
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok()) << c.point;
  EXPECT_EQ(probe.generation(), c.expect_generation) << c.point;
  if (probe.generation() == 1) {
    EXPECT_EQ(probe.size(), 1u);
  } else {
    EXPECT_EQ(probe.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSavePoints, SaveFaultTest,
    ::testing::Values(
        SaveFaultCase{"store/open-temp", fault::FaultKind::kError, 1},
        SaveFaultCase{"store/write-frame", fault::FaultKind::kTornWrite, 1},
        SaveFaultCase{"store/sync", fault::FaultKind::kCrash, 1},
        SaveFaultCase{"store/rename", fault::FaultKind::kCrash, 1},
        // After the rename the new generation IS durable; the caller sees
        // the crash, but restart recovers generation 2.
        SaveFaultCase{"store/after-rename", fault::FaultKind::kCrash, 2}),
    [](const ::testing::TestParamInfo<SaveFaultCase>& param_info) {
      std::string name = param_info.param.point;
      for (char& ch : name) {
        if (ch == '/' || ch == '-') ch = '_';
      }
      return name;
    });

// --- Append path -------------------------------------------------------

using RecordKey = std::tuple<TxnId, uint32_t, uint64_t, int>;

/// Order-insensitive view of a record list.
std::vector<RecordKey> Keys(const std::vector<LongLockRecord>& records) {
  std::vector<RecordKey> keys;
  for (const LongLockRecord& r : records) {
    keys.emplace_back(r.txn, r.resource.node, r.resource.instance,
                      static_cast<int>(r.mode));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

using EpochKey = std::tuple<uint32_t, uint64_t, uint64_t>;

std::vector<EpochKey> Keys(const std::vector<FenceEpochRecord>& epochs) {
  std::vector<EpochKey> keys;
  for (const FenceEpochRecord& e : epochs) {
    keys.emplace_back(e.root.node, e.root.instance, e.epoch);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Takes \p n long locks for \p txn on node \p node.
void HoldLong(LockManager& lm, TxnId txn, uint32_t node, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(lm.Acquire(txn, {node, i}, LockMode::kX, LongOpts()).ok());
  }
}

TEST_F(LongLockStoreTest, TwoGenerationSeedHoldsTwoImages) {
  const std::string bytes = SeedTwoGenerations();
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.last_load().deltas, 0u);
  const size_t first = 4 + 8 + 4 + 4 + 2 * 21 + 4;
  const size_t second = 4 + 8 + 4 + 4 + 3 * 21 + 4;
  EXPECT_EQ(bytes.size(), first + second);
  EXPECT_EQ(bytes.substr(first, 4), "CGN2");
}

TEST_F(LongLockStoreTest, SecondSaveAppendsADeltaBehindTheImage) {
  const std::string bytes = SeedTwoGenerations(/*reload_between=*/false);
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.last_load().deltas, 1u);
  // Image of generation 1 (2 records), then one delta naming txn 2's
  // single record — not a second image.
  const size_t image = 4 + 8 + 4 + 4 + 2 * 21 + 4;
  const size_t delta = 4 + 8 + 4 + 4 + (8 + 4 + 13) + 4;
  EXPECT_EQ(bytes.size(), image + delta);
  EXPECT_EQ(bytes.substr(image, 4), "CGD1");
}

TEST_F(LongLockStoreTest, SaveAgainstAnotherManagerReplacesTheState) {
  LongLockStore store;
  store.SetBackingFile(path_);
  LockManager first;
  HoldLong(first, 1, 1, 3);
  ASSERT_TRUE(store.Save(first).ok());
  EXPECT_EQ(store.size(), 3u);

  // A different manager (a restart without Restore, say): the store
  // mirrors it, not a merge of both.
  LockManager second;
  HoldLong(second, 2, 2, 1);
  ASSERT_TRUE(store.Save(second).ok());
  EXPECT_EQ(Keys(store.records()),
            Keys({{2, {2, 0}, LockMode::kX}}));
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(Keys(probe.records()), Keys(store.records()));

  // Back to the first manager: it rebinds again.
  ASSERT_TRUE(store.Save(first).ok());
  EXPECT_EQ(store.size(), 3u);
}

TEST_F(LongLockStoreTest, DeltaLogCompactsIntoAnImage) {
  LockManager lm;
  HoldLong(lm, 1, 1, 20);  // standing check-out
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.Save(lm).ok());
  const size_t image = 4 + 8 + 4 + 4 + 20 * 21 + 4;

  size_t max_size = 0;
  for (TxnId txn = 2; txn < 60; ++txn) {
    HoldLong(lm, txn, 2, 3);  // check-out
    ASSERT_TRUE(store.Save(lm).ok());
    max_size = std::max<size_t>(max_size, std::filesystem::file_size(path_));
    lm.ReleaseAll(txn);  // check-in
    ASSERT_TRUE(store.Save(lm).ok());
    max_size = std::max<size_t>(max_size, std::filesystem::file_size(path_));
  }
  // Two images (previous + current, at most 3 records apart), each
  // followed by a delta log no longer than one image.
  EXPECT_LE(max_size, 4 * (image + 3 * 21));

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), store.generation());
  EXPECT_EQ(Keys(probe.records()), Keys(lm.SnapshotLongLocks()));
  EXPECT_FALSE(probe.last_load().salvaged);
}

// A compaction keeps the previous image's delta log ahead of the new
// image, so a torn or corrupted newest image falls back to the generation
// just before it — grants and epoch bumps saved since the previous image
// included — not to the previous image alone.
TEST_F(LongLockStoreTest, DamagedCompactedImageFallsBackOneGeneration) {
  LockManager lm;
  HoldLong(lm, 1, 1, 10);  // standing check-out: a few deltas per image
  LongLockStore store;
  store.SetBackingFile(path_);
  std::vector<std::vector<RecordKey>> records(1);
  std::vector<std::vector<EpochKey>> epochs(1);
  auto save = [&] {
    EXPECT_TRUE(store.Save(lm).ok());
    records.push_back(Keys(store.records()));
    epochs.push_back(Keys(store.FenceEpochs()));
    LongLockStore probe;
    EXPECT_TRUE(probe.LoadFromFile(path_).ok());
    return probe.last_load().deltas == 0;  // the file ends in an image
  };
  save();  // generation 1: image
  bool compacted = false;
  for (TxnId txn = 2; !compacted; ++txn) {
    ASSERT_LT(txn, 50u) << "no compaction";
    HoldLong(lm, txn, 2, 2);  // check-out
    compacted = save();
    if (compacted) break;
    store.BumpFenceEpoch({2, 0});  // lease reclaim, then check-in
    lm.ReleaseAll(txn);
    compacted = save();
  }
  const uint64_t newest = store.generation();
  const size_t image = 4 + 8 + 4 + 4 + store.size() * 21 +
                       store.FenceEpochs().size() * 20 + 4;
  const std::string bytes = ReadFile(path_);
  ASSERT_GT(bytes.size(), image);
  const size_t image_at = bytes.size() - image;
  ASSERT_EQ(bytes.substr(image_at, 4), "CGN2");

  const std::string cut = (dir_ / "cut.bin").string();
  auto expect_previous = [&](const std::string& damaged,
                             const std::string& where) {
    WriteFile(cut, damaged);
    LongLockStore probe;
    ASSERT_TRUE(probe.LoadFromFile(cut).ok()) << where;
    ASSERT_EQ(probe.generation(), newest - 1) << where;
    EXPECT_GE(probe.last_load().deltas, 2u) << where;
    EXPECT_EQ(Keys(probe.records()), records[newest - 1]) << where;
    EXPECT_EQ(Keys(probe.FenceEpochs()), epochs[newest - 1]) << where;
  };
  for (size_t len = image_at; len < bytes.size(); ++len) {
    expect_previous(bytes.substr(0, len), "truncated at " + std::to_string(len));
  }
  for (size_t at = image_at; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5A);
    expect_previous(flipped, "flipped at " + std::to_string(at));
  }
}

// One check-out's save costs the same bytes whatever the standing set:
// the write path never scans the lock table or rewrites its image.
TEST_F(LongLockStoreTest, CheckOutSaveBytesAreFlatInStandingLocks) {
  std::vector<uintmax_t> appended;
  for (size_t standing : {size_t{0}, size_t{1000}, size_t{10000}}) {
    std::filesystem::remove(path_);
    LockManager lm;
    for (size_t i = 0; i < standing; ++i) {
      ASSERT_TRUE(lm.Acquire(1 + i / 10, {1, i}, LockMode::kX, LongOpts())
                      .ok());
    }
    LongLockStore store;
    store.SetBackingFile(path_);
    ASSERT_TRUE(store.Save(lm).ok());  // binds: the standing image
    const uintmax_t before = std::filesystem::file_size(path_);

    const TxnId txn = 1'000'000;
    const ResourceId path[] = {{2, 0}, {3, 1}, {4, 1}, {5, 1}};
    ASSERT_TRUE(lm.AcquirePath(txn, path, LockMode::kX, LongOpts()).ok());
    ASSERT_TRUE(store.Save(lm).ok());
    appended.push_back(std::filesystem::file_size(path_) - before);

    LongLockStore probe;
    ASSERT_TRUE(probe.LoadFromFile(path_).ok());
    EXPECT_EQ(probe.size(), standing + 4) << standing;
  }
  EXPECT_EQ(appended[0], 4u + 8 + 4 + 4 + (8 + 4 + 4 * 13) + 4);
  EXPECT_EQ(appended[1], appended[0]);
  EXPECT_EQ(appended[2], appended[0]);
}

TEST_F(LongLockStoreTest, ConcurrentSavesNeverDropADurableLock) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 200; ++round) {
    LockManager lm;
    LongLockStore store;
    store.SetBackingFile(path_);
    std::vector<std::thread> threads;
    std::vector<int> failed(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const TxnId txn = static_cast<TxnId>(t + 1);
        const ResourceId res{static_cast<uint32_t>(t + 1),
                             static_cast<uint64_t>(round)};
        failed[t] = !lm.Acquire(txn, res, LockMode::kX, LongOpts()).ok() ||
                    !store.Save(lm).ok();
      });
    }
    for (std::thread& th : threads) th.join();
    ASSERT_EQ(std::count(failed.begin(), failed.end(), 1), 0);

    LongLockStore probe;
    ASSERT_TRUE(probe.LoadFromFile(path_).ok());
    ASSERT_EQ(probe.size(), static_cast<size_t>(kThreads))
        << "round " << round << ": a lock whose Save returned OK is gone";
    ASSERT_EQ(probe.generation(), static_cast<uint64_t>(kThreads));
  }
}

/// A store file of one image and three deltas (one of them carrying a
/// fence-epoch bump), plus the state after every generation and the
/// offset at which each block ends.
struct DeltaLogFixture {
  std::string bytes;
  std::vector<std::vector<RecordKey>> records;  ///< by generation
  std::vector<std::vector<EpochKey>> epochs;    ///< by generation
  std::vector<size_t> block_end;                ///< by generation (1-based)
};

DeltaLogFixture BuildDeltaLog(const std::string& path) {
  DeltaLogFixture fx;
  fx.records.emplace_back();
  fx.epochs.emplace_back();
  fx.block_end.push_back(0);
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path);
  auto save = [&] {
    EXPECT_TRUE(store.Save(lm).ok());
    fx.records.push_back(Keys(store.records()));
    fx.epochs.push_back(Keys(store.FenceEpochs()));
    fx.block_end.push_back(std::filesystem::file_size(path));
  };
  HoldLong(lm, 1, 1, 12);  // standing: keeps the deltas below one image
  HoldLong(lm, 2, 2, 2);
  save();                  // generation 1: image
  HoldLong(lm, 3, 3, 2);
  save();                  // generation 2: check-out
  store.BumpFenceEpoch({2, 0});
  lm.ReleaseAll(2);
  save();                  // generation 3: reclaim + epoch bump
  EXPECT_TRUE(lm.Downgrade(3, {3, 1}, LockMode::kS).ok());
  EXPECT_TRUE(lm.Release(3, {3, 0}).ok());
  save();                  // generation 4: downgrade + partial release
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  fx.bytes = buf.str();
  return fx;
}

TEST_F(LongLockStoreTest, DeltaLogTruncationAndByteFlipRecoverWholeGenerations) {
  const DeltaLogFixture fx = BuildDeltaLog(path_);
  ASSERT_EQ(fx.block_end.size(), 5u);
  ASSERT_EQ(fx.block_end[4], fx.bytes.size());
  {
    LongLockStore full;
    ASSERT_TRUE(full.LoadFromFile(path_).ok());
    ASSERT_EQ(full.last_load().deltas, 3u);
    ASSERT_EQ(full.generation(), 4u);
  }
  // The epoch bump is only in the generation-3 delta.
  ASSERT_TRUE(fx.epochs[2].empty());
  ASSERT_EQ(fx.epochs[3], (std::vector<EpochKey>{{2, 0, 1}}));

  const std::string cut = (dir_ / "cut.bin").string();
  auto expect_generation = [&](const std::string& bytes, uint64_t want,
                               const std::string& where) {
    WriteFile(cut, bytes);
    LongLockStore probe;
    ASSERT_TRUE(probe.LoadFromFile(cut).ok()) << where;
    ASSERT_EQ(probe.generation(), want) << where;
    EXPECT_EQ(Keys(probe.records()), fx.records[want]) << where;
    EXPECT_EQ(Keys(probe.FenceEpochs()), fx.epochs[want]) << where;
  };

  // Truncation at every offset recovers exactly the blocks that are whole.
  for (size_t len = 0; len <= fx.bytes.size(); ++len) {
    uint64_t want = 0;
    while (want < 4 && fx.block_end[want + 1] <= len) ++want;
    expect_generation(fx.bytes.substr(0, len), want,
                      "truncated at " + std::to_string(len));
  }
  // A flipped byte invalidates its block and everything behind it: no
  // delta is ever applied after a corrupt one.
  for (size_t at = 0; at < fx.bytes.size(); ++at) {
    uint64_t block = 1;
    while (fx.block_end[block] <= at) ++block;
    std::string flipped = fx.bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5A);
    expect_generation(flipped, block - 1, "flipped at " + std::to_string(at));
  }
}

TEST_F(LongLockStoreTest, OutOfSequenceDeltaEndsTheReplay) {
  const DeltaLogFixture fx = BuildDeltaLog(path_);
  // Drop the generation-3 delta: generation 4 no longer follows 2.
  const std::string bytes = fx.bytes.substr(0, fx.block_end[2]) +
                            fx.bytes.substr(fx.block_end[3]);
  WriteFile(path_, bytes);
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 2u);
  EXPECT_EQ(Keys(probe.records()), fx.records[2]);
  EXPECT_TRUE(probe.last_load().salvaged);
}

struct AppendFaultCase {
  const char* point;
  fault::FaultKind kind;
  /// Generation a post-fault load recovers: 1 = the torn delta is
  /// dropped, 2 = the delta was whole before the flush failed.
  uint64_t expect_generation;
};

class AppendFaultTest : public LongLockStoreTest,
                        public ::testing::WithParamInterface<AppendFaultCase> {
};

TEST_P(AppendFaultTest, FailedAppendIsReportedRecoverableAndCompacted) {
  const AppendFaultCase& c = GetParam();
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  HoldLong(lm, 1, 1, 4);
  ASSERT_TRUE(store.Save(lm).ok());  // generation 1: image

  fault::FaultSpec spec;
  spec.kind = c.kind;
  spec.trigger = fault::Trigger::Once();
  fault::ScopedFault f(c.point, spec);
  ASSERT_TRUE(f.valid()) << c.point;

  HoldLong(lm, 2, 2, 1);
  Status saved = store.Save(lm);  // generation 2: the append dies
  EXPECT_FALSE(saved.ok()) << c.point;
  EXPECT_TRUE(fault::IsInjectedCrash(saved)) << saved.ToString();

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok()) << c.point;
  EXPECT_EQ(probe.generation(), c.expect_generation) << c.point;
  EXPECT_EQ(probe.size(), c.expect_generation == 1 ? 4u : 5u) << c.point;

  // The next save must not append behind the torn bytes: it writes a
  // fresh image, and the file loads clean.
  HoldLong(lm, 3, 3, 1);
  ASSERT_TRUE(store.Save(lm).ok());
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 3u);
  EXPECT_EQ(probe.size(), 6u);
  EXPECT_EQ(probe.last_load().deltas, 0u);
  EXPECT_FALSE(probe.last_load().salvaged);
}

INSTANTIATE_TEST_SUITE_P(
    AppendPoints, AppendFaultTest,
    ::testing::Values(
        AppendFaultCase{"store/write-frame", fault::FaultKind::kTornWrite, 1},
        AppendFaultCase{"store/sync", fault::FaultKind::kCrash, 2}),
    [](const ::testing::TestParamInfo<AppendFaultCase>& param_info) {
      std::string name = param_info.param.point;
      for (char& ch : name) {
        if (ch == '/' || ch == '-') ch = '_';
      }
      return name;
    });

// --- The lock manager's long-lock change set ----------------------------

TEST(LongLockChangeSetTest, RecordsNothingUntilAConsumerResets) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  std::vector<TxnId> changed;
  EXPECT_FALSE(lm.DrainLongLockChanges(0, &changed));
  const uint64_t token = lm.ResetLongLockChanges();
  ASSERT_TRUE(lm.DrainLongLockChanges(token, &changed));
  EXPECT_TRUE(changed.empty());
}

TEST(LongLockChangeSetTest, NotesLongChangesOnly) {
  LockManager lm;
  const uint64_t token = lm.ResetLongLockChanges();
  auto drain = [&] {
    std::vector<TxnId> changed;
    EXPECT_TRUE(lm.DrainLongLockChanges(token, &changed));
    return changed;
  };

  // Short grants, releases and EOT never touch the set.
  ASSERT_TRUE(lm.Acquire(9, {1, 1}, LockMode::kS).ok());
  const ResourceId short_path[] = {{2, 0}, {3, 1}};
  ASSERT_TRUE(lm.AcquirePath(9, short_path, LockMode::kX).ok());
  ASSERT_TRUE(lm.Release(9, {1, 1}).ok());
  lm.ReleaseAll(9);
  EXPECT_TRUE(drain().empty());

  ASSERT_TRUE(lm.Acquire(2, {1, 1}, LockMode::kX, LongOpts()).ok());
  const ResourceId long_path[] = {{2, 0}, {3, 2}};
  ASSERT_TRUE(lm.AcquirePath(1, long_path, LockMode::kX, LongOpts()).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{1, 2}));
  EXPECT_TRUE(drain().empty());  // drained

  ASSERT_TRUE(lm.Downgrade(1, {3, 2}, LockMode::kS).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{1}));
  ASSERT_TRUE(lm.Release(2, {1, 1}).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{2}));
  lm.ReleaseAll(1);
  EXPECT_EQ(drain(), (std::vector<TxnId>{1}));

  ASSERT_TRUE(lm.RestoreLongLocks({{7, {5, 5}, LockMode::kX}}).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{7}));
}

TEST(LongLockChangeSetTest, GrantedLongWaiterIsNoted) {
  LockManager lm;
  const uint64_t token = lm.ResetLongLockChanges();
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX).ok());  // short blocker
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(2, {1, 1}, LockMode::kX, LongOpts()).ok());
  });
  while (lm.NumBlockedWaiters() == 0) std::this_thread::yield();
  lm.ReleaseAll(1);
  waiter.join();
  std::vector<TxnId> changed;
  ASSERT_TRUE(lm.DrainLongLockChanges(token, &changed));
  EXPECT_EQ(changed, (std::vector<TxnId>{2}));
  EXPECT_EQ(Keys(lm.LongLocksOf(2)), Keys({{2, {1, 1}, LockMode::kX}}));
}

// A short request that converts a long holder raises the mode of a long
// lock, so it is a long-lock change like any long grant.
TEST(LongLockChangeSetTest, ShortConversionOfALongHolderIsNoted) {
  LockManager lm;
  const uint64_t token = lm.ResetLongLockChanges();
  auto drain = [&] {
    std::vector<TxnId> changed;
    EXPECT_TRUE(lm.DrainLongLockChanges(token, &changed));
    return changed;
  };

  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kIS, LongOpts()).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{1}));
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX).ok());  // immediate
  EXPECT_EQ(drain(), (std::vector<TxnId>{1}));
  EXPECT_EQ(Keys(lm.LongLocksOf(1)), Keys({{1, {1, 1}, LockMode::kX}}));
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kS).ok());  // covered
  EXPECT_TRUE(drain().empty());

  // AcquirePath: the short X leaf's IX prefix converts a long IS.
  ASSERT_TRUE(lm.Acquire(2, {2, 0}, LockMode::kIS, LongOpts()).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{2}));
  const ResourceId path[] = {{2, 0}, {3, 1}};
  ASSERT_TRUE(lm.AcquirePath(2, path, LockMode::kX).ok());
  EXPECT_EQ(drain(), (std::vector<TxnId>{2}));
  EXPECT_EQ(Keys(lm.LongLocksOf(2)), Keys({{2, {2, 0}, LockMode::kIX}}));

  // A conversion granted by GrantWaiters after a wait.
  ASSERT_TRUE(lm.Acquire(3, {4, 4}, LockMode::kIS, LongOpts()).ok());
  ASSERT_TRUE(lm.Acquire(4, {4, 4}, LockMode::kIS).ok());  // short blocker
  EXPECT_EQ(drain(), (std::vector<TxnId>{3}));
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(3, {4, 4}, LockMode::kX).ok());
  });
  while (lm.NumBlockedWaiters() == 0) std::this_thread::yield();
  lm.ReleaseAll(4);
  waiter.join();
  EXPECT_EQ(drain(), (std::vector<TxnId>{3}));
  EXPECT_EQ(Keys(lm.LongLocksOf(3)), Keys({{3, {4, 4}, LockMode::kX}}));
}

TEST(LongLockChangeSetTest, ANewConsumerRetiresTheOldToken) {
  LockManager lm;
  const uint64_t first = lm.ResetLongLockChanges();
  const uint64_t second = lm.ResetLongLockChanges();
  EXPECT_NE(first, second);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  std::vector<TxnId> changed;
  EXPECT_FALSE(lm.DrainLongLockChanges(first, &changed));
  EXPECT_TRUE(changed.empty());
  ASSERT_TRUE(lm.DrainLongLockChanges(second, &changed));
  EXPECT_EQ(changed, (std::vector<TxnId>{1}));
  // Tokens are unique across managers too.
  LockManager other;
  EXPECT_FALSE(other.DrainLongLockChanges(second, &changed));
}

TEST(LongLockChangeSetTest, LongLocksOfMatchesTheSnapshot) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(lm.Acquire(1, {1, 2}, LockMode::kS).ok());  // short: omitted
  ASSERT_TRUE(lm.Acquire(1, {1, 3}, LockMode::kIS).ok());
  ASSERT_TRUE(lm.Acquire(1, {1, 3}, LockMode::kIX, LongOpts()).ok());
  ASSERT_TRUE(lm.Acquire(2, {1, 4}, LockMode::kS, LongOpts()).ok());
  std::vector<LongLockRecord> mine;
  for (const LongLockRecord& r : lm.SnapshotLongLocks()) {
    if (r.txn == 1) mine.push_back(r);
  }
  EXPECT_EQ(Keys(lm.LongLocksOf(1)), Keys(mine));
  EXPECT_EQ(lm.LongLocksOf(1).size(), 2u);
  EXPECT_TRUE(lm.LongLocksOf(3).empty());
}

}  // namespace
}  // namespace codlock::lock
