/// \file txn_lock_cache.h
/// \brief Transaction-local cache of held lock modes.
///
/// Every protocol operation of §4.4.2 locks a root-to-leaf chain, and
/// upward/downward propagation re-acquires the same intention locks over
/// and over.  Those re-entrant acquisitions of an equal-or-weaker mode are
/// the overwhelmingly common case, yet each one pays a shard-mutex round
/// trip.  A `TxnLockCache` remembers (resource → granted mode) for one
/// transaction so that a covered re-acquisition returns without touching
/// any shard.
///
/// ## Ownership and threading
///
/// The cache is owned by the transaction (see `txn::Transaction`) and its
/// map is read and written **only by the transaction's own thread** — the
/// thread driving that transaction's protocol calls.  Other threads never
/// touch the map; they *invalidate* the cache through a single atomic
/// epoch counter.  The lock manager keeps a registry of attached caches
/// (`LockManager::AttachCache`) so that cross-thread events that can
/// shrink the held set — `Wound`, a foreign-path `Release`, `Downgrade`,
/// `ReleaseAll` — bump the epoch.  The owner detects the bump on its next
/// lookup and discards the whole map, falling back to the authoritative
/// slow path.
///
/// Clang Thread Safety Analysis cannot express "single owner thread"
/// directly, so the contract is encoded as an annotation-only capability:
/// `slots_`/`seen_epoch_` are `GUARDED_BY(owner_)` and every owner-thread
/// method asserts the capability (zero-cost — the assert function is an
/// empty inline).  Any future accessor of the map that forgets to declare
/// itself an owner-thread method is flagged under `-Wthread-safety`;
/// `Invalidate` needs no assertion because it only touches the atomic.
///
/// ## Coherence rules (kept provably simple)
///
///  1. An entry is written only after the slow path *granted* that mode —
///     the cache can never claim more than the shard holds.
///  2. A lookup answers only requests *covered* by the cached mode; any
///     stronger request goes to the slow path (which refreshes the entry).
///  3. Any event that can weaken or drop a held lock invalidates: the
///     owner erases the entry in place (same thread), every other path
///     bumps the epoch which discards the entire cache.
///  4. Cache hits are counted locally (`pending`); a matching `Release`
///     consumes a pending count first, so the shard-side hold count only
///     ever pairs with acquisitions that reached the shard.
///  5. A wound invalidates the whole cache, so a wounded transaction's
///     next acquisition reaches the slow path and fails with kAborted —
///     the cache never masks a wound or deadlock kill.

#ifndef CODLOCK_LOCK_TXN_LOCK_CACHE_H_
#define CODLOCK_LOCK_TXN_LOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "lock/mode.h"
#include "lock/resource.h"
#include "util/thread_annotations.h"

namespace codlock::lock {

/// \brief Annotation-only capability standing in for "the owning thread is
/// the caller".  Never actually locked; owner-thread methods assert it so
/// the analysis can police access to owner-only state.
class CODLOCK_CAPABILITY("owner-thread") OwnerThreadCap {};

/// \brief Per-transaction held-lock cache.  See file comment for the
/// threading contract.
///
/// Storage is a flat array scanned linearly: transactions hold few locks
/// (a root-to-leaf path is ~4–13 resources) and a bounded scan over
/// contiguous slots beats hashing.  The array is capped at `kMaxEntries`;
/// once full, further grants simply are not cached — a miss is always
/// safe (rule 2) and the cap bounds the scan cost of misses.
class TxnLockCache {
 public:
  /// Most entries a cache will hold; beyond this, new grants go uncached.
  static constexpr size_t kMaxEntries = 64;

  TxnLockCache() = default;
  TxnLockCache(const TxnLockCache&) = delete;
  TxnLockCache& operator=(const TxnLockCache&) = delete;

  /// Cached slot for one resource.
  struct Slot {
    ResourceId res;
    LockMode mode = LockMode::kNL;
    uint8_t duration = 0;   ///< 1 when the shard-side holder is long.
    uint32_t pending = 0;   ///< cache hits not yet released
  };

  /// Mode this transaction is known to hold on \p r (kNL on miss or after
  /// an invalidation).  Owner thread only.
  LockMode CachedMode(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return LockMode::kNL;
    const Slot* s = Find(r);
    return s == nullptr ? LockMode::kNL : s->mode;
  }

  /// True when the cached slot can absorb a request for \p mode with
  /// duration \p want_long: the cached mode covers it and a long request
  /// never piggybacks on a short-duration holder (the slow path must
  /// upgrade the holder's duration for crash survival).  On success the
  /// grant is counted locally.  Owner thread only.
  bool TryHit(const ResourceId& r, LockMode mode, bool want_long) {
    AssertOwner();
    if (!Fresh()) return false;
    Slot* s = Find(r);
    if (s == nullptr || !Covers(s->mode, mode)) return false;
    if (want_long && s->duration == 0) return false;
    ++s->pending;
    return true;
  }

  /// Records a shard-side grant of \p mode on \p r.  Owner thread only.
  void Note(const ResourceId& r, LockMode mode, bool is_long) {
    AssertOwner();
    Fresh();  // start a fresh array if an invalidation raced the grant
    Slot* s = FindOrCreate(r);
    if (s == nullptr) return;  // full: stay uncached
    s->mode = Supremum(s->mode, mode);
    if (is_long) s->duration = 1;
  }

  /// Consumes one cache hit of \p r if any is pending; the caller
  /// skips the shard entirely when this returns true.  Owner thread only.
  bool ConsumeRelease(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return false;
    Slot* s = Find(r);
    if (s == nullptr || s->pending == 0) return false;
    --s->pending;
    return true;
  }

  /// Drops the entry for \p r (owner-thread release/downgrade).
  void Erase(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return;
    Slot* s = Find(r);
    if (s == nullptr) return;
    *s = slots_.back();
    slots_.pop_back();
  }

  /// Drops everything (EOT).  Owner thread only.
  void Clear() {
    AssertOwner();
    slots_.clear();
    seen_epoch_ = epoch_.load(std::memory_order_acquire);
  }

  /// Cross-thread invalidation: the owner discards the array on its next
  /// access.  Safe from any thread.
  void Invalidate() { epoch_.fetch_add(1, std::memory_order_release); }

  /// Number of live cached entries (test/inspection; owner thread only).
  size_t size() {
    AssertOwner();
    if (!Fresh()) return 0;
    return slots_.size();
  }

  /// The slots a lookup would currently trust: empty if a
  /// pending invalidation would discard the array first, the live array
  /// otherwise.  This is the cache-coherence oracle's view — every
  /// returned slot must be covered by the shard table's ground truth.
  ///
  /// Caller contract: the owning transaction's thread must be quiescent
  /// (the model checker audits only when every scheduled thread is parked
  /// or at an operation boundary), making this effectively an owner-thread
  /// read even when issued from the controller.
  std::vector<Slot> AuditSnapshot() const CODLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if (epoch_.load(std::memory_order_acquire) != seen_epoch_) return {};
    return slots_;
  }

 private:
  /// Zero-cost capability assertion: calling any owner-thread method *is*
  /// the claim of being the owner; the analysis takes it from here.
  void AssertOwner() CODLOCK_ASSERT_CAPABILITY(owner_) {}

  /// Discards the array if an invalidation happened since the last access.
  /// Returns true when the contents are trustworthy.
  bool Fresh() CODLOCK_REQUIRES(owner_) {
    uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e == seen_epoch_) return true;
    slots_.clear();
    seen_epoch_ = e;
    return false;
  }

  Slot* Find(const ResourceId& r) CODLOCK_REQUIRES(owner_) {
    for (Slot& s : slots_) {
      if (s.res == r) return &s;
    }
    return nullptr;
  }

  /// Find, creating an empty slot when absent; nullptr when full.
  Slot* FindOrCreate(const ResourceId& r) CODLOCK_REQUIRES(owner_) {
    Slot* s = Find(r);
    if (s != nullptr) return s;
    if (slots_.size() >= kMaxEntries) return nullptr;
    slots_.push_back(Slot{r, LockMode::kNL, 0, 0});
    return &slots_.back();
  }

  OwnerThreadCap owner_;
  std::vector<Slot> slots_ CODLOCK_GUARDED_BY(owner_);
  std::atomic<uint64_t> epoch_{0};
  uint64_t seen_epoch_ CODLOCK_GUARDED_BY(owner_) = 0;
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_TXN_LOCK_CACHE_H_
