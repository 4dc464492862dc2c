/// \file lock_manager.h
/// \brief Transaction-oriented lock manager.
///
/// This is the "lock manager" of §4.1: protocols determine *which* granules
/// to lock in *which* mode; the lock manager tests whether a request can be
/// granted, blocks conflicting requests, detects deadlocks on the waits-for
/// graph, and administrates held locks per transaction.
///
/// Features:
///  * modes IS/IX/S/SIX/X with the classical compatibility matrix,
///  * re-entrant acquisition and in-place conversion (upgrade to the
///    supremum of held and requested mode; conversions jump the queue),
///  * FIFO-fair waiting (no reader slips past a queued writer),
///  * deadlock detection: a waits-for graph is maintained while requests
///    block; cycles are resolved by aborting the *youngest* transaction in
///    the cycle (its pending request fails with `StatusCode::kDeadlock`),
///  * per-request deadlines (timeout as a backstop),
///  * short and *long* lock durations; long locks survive a simulated
///    system crash via `SnapshotLongLocks`/`RestoreLongLocks` (§3.1:
///    "long locks must survive system shutdowns and system crashes").
///
/// Hot-path machinery (the intention-lock tax of fine-granularity
/// protocols — cf. Malta & Martinez — dominates §4.4.2 workloads):
///  * an optional per-transaction `TxnLockCache` absorbs re-entrant
///    acquisitions of covered modes without touching any shard mutex,
///  * `AcquirePath` locks a root-to-leaf chain in one call, visiting each
///    shard mutex once and updating the held-lock registry in one batch,
///  * waiters carry their own condition variable, so a grant wakes exactly
///    the transactions it unblocked instead of broadcasting to the shard.
///
/// The lock table itself is plain (DESIGN.md §11): every entry lives in a
/// per-shard bucket chain and is read and written only under its shard
/// mutex.  An emptied entry is unlinked at once and kept in a small
/// per-shard pool (`kEntryPoolSize`) for the next new resource.

#ifndef CODLOCK_LOCK_LOCK_MANAGER_H_
#define CODLOCK_LOCK_LOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/mode.h"
#include "lock/resource.h"
#include "lock/txn_lock_cache.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace codlock::lock {

/// Lifetime class of a lock (§3.1).
enum class LockDuration : uint8_t {
  kShort,  ///< released at EOT; lost on crash
  kLong    ///< survives shutdowns/crashes (check-out locks)
};

/// How the manager deals with (potential) deadlocks.
enum class DeadlockPolicy : uint8_t {
  /// Maintain a waits-for graph while requests block; on a cycle, abort
  /// the youngest member (its pending request fails with kDeadlock).
  kDetect,
  /// Wound-wait (preemptive prevention): an older requester *wounds*
  /// younger conflicting transactions — their pending waits are killed
  /// and their next acquire fails with kAborted; a younger requester
  /// waits.  No cycles can form.
  kWoundWait,
  /// Wait-die (non-preemptive prevention): an older requester may wait; a
  /// younger requester dies immediately (kDeadlock) when blocked by an
  /// older transaction.  No cycles can form.
  kWaitDie,
  /// No prevention or detection; the per-request deadline is the only way
  /// out of a deadlock (kTimeout).
  kTimeoutOnly,
};

std::string_view DeadlockPolicyName(DeadlockPolicy policy);

/// Per-request options.
struct AcquireOptions {
  /// `timeout_ms` sentinel: use the manager's `default_timeout_ms`.
  /// Historically `timeout_ms == 0` silently meant "default", making an
  /// explicit zero-length wait unexpressible; the sentinels make the
  /// intent spellable.  0 is kept equal to kTimeoutDefault for backward
  /// compatibility — a true "don't wait" is `wait = false`.
  static constexpr uint64_t kTimeoutDefault = 0;
  /// `timeout_ms` sentinel: wait forever (no deadline).
  static constexpr uint64_t kTimeoutInfinite = ~uint64_t{0};

  LockDuration duration = LockDuration::kShort;
  /// If false, a conflicting request fails immediately with kConflict.
  bool wait = true;
  /// Deadline for a waiting request, in milliseconds.  `kTimeoutDefault`
  /// (= 0) uses the manager default; `kTimeoutInfinite` waits without a
  /// deadline.
  uint64_t timeout_ms = kTimeoutDefault;
};

/// A lock held by a transaction (inspection, Fig. 7 reproduction).
struct HeldLock {
  ResourceId resource;
  LockMode mode = LockMode::kNL;
  LockDuration duration = LockDuration::kShort;
};

/// Snapshot record of a long lock (crash survival).
struct LongLockRecord {
  TxnId txn = kInvalidTxn;
  ResourceId resource;
  LockMode mode = LockMode::kNL;
};

/// \brief The lock manager.
class LockManager {
 public:
  struct Options {
    /// Desired shard count; clamped to >= 1 and rounded up to the next
    /// power of two so `ShardFor` can mask instead of divide.  0 (the
    /// default) derives the count from the machine's hardware concurrency
    /// (see `DerivedNumShards`).
    int num_shards = 0;
    /// Legacy switch: false maps to DeadlockPolicy::kTimeoutOnly.
    bool detect_deadlocks = true;
    DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
    /// Default deadline for waiting requests; may be
    /// `AcquireOptions::kTimeoutInfinite`.
    uint64_t default_timeout_ms = 10'000;
    /// Overload shedding: when more than this many requests are blocked
    /// manager-wide, further requests that would have to wait fail with
    /// `StatusCode::kShed` instead of queuing (0 = unlimited).  Bounds the
    /// waiter convoy under overload so admitted work keeps finishing.
    size_t max_blocked_waiters = 0;
  };

  /// Default shard count for a machine with \p hardware_concurrency
  /// logical CPUs: the next power of two >= 4x the CPU count, clamped to
  /// [16, 1024].  4x over-provisioning keeps two random resources likely
  /// on distinct shards even when every core runs a lock-hot thread;
  /// 16 preserves the historical default on small hosts (and when the
  /// runtime reports 0, i.e. "unknown").
  static size_t DerivedNumShards(unsigned hardware_concurrency);

  explicit LockManager(Options options);
  LockManager() : LockManager(Options()) {}
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests \p mode on \p resource for \p txn.
  ///
  /// Re-entrant: if the transaction already holds the resource, the held
  /// mode is upgraded to sup(held, requested) — waiting for conflicting
  /// holders to drain if necessary.  Returns:
  ///  * OK         — granted,
  ///  * kConflict  — incompatible and `options.wait == false`,
  ///  * kDeadlock  — this request was chosen as deadlock victim,
  ///  * kTimeout   — deadline expired while waiting.
  ///
  /// \p cache, when given, must be the cache attached for \p txn (see
  /// `AttachCache`) and the call must come from the transaction's own
  /// thread.  Covered re-acquisitions are then answered from the cache
  /// without touching the shard.
  Status Acquire(TxnId txn, ResourceId resource, LockMode mode,
                 const AcquireOptions& options = AcquireOptions(),
                 TxnLockCache* cache = nullptr)
      CODLOCK_EXCLUDES(registry_mu_, caches_mu_, wounded_mu_);

  /// Acquires a root-to-leaf chain in one call (§4.4.2 rule 5): every
  /// element of \p path except the last is locked in `IntentionFor(
  /// leaf_mode)`, the last in \p leaf_mode.  Resources are grouped by
  /// shard and each shard mutex is visited once; resources that cannot be
  /// granted immediately fall back to ordered blocking acquisition
  /// (root-to-leaf), preserving the protocol's waiting behavior.  On
  /// failure the *acquisitions this call made* are rolled back
  /// (leaf-to-root), so a failed path leaves no newly-taken intention
  /// locks behind; mode upgrades a conversion applied to a previously
  /// held lock are not undone (the count is re-paired, the stronger mode
  /// stays until the caller aborts — safe, merely conservative).
  Status AcquirePath(TxnId txn, std::span<const ResourceId> path,
                     LockMode leaf_mode,
                     const AcquireOptions& options = AcquireOptions(),
                     TxnLockCache* cache = nullptr)
      CODLOCK_EXCLUDES(registry_mu_, caches_mu_, wounded_mu_);

  /// Releases one acquisition of \p resource (locks are counted; the entry
  /// disappears when the count reaches zero).  The held *mode* is not
  /// recomputed on partial release; use `Downgrade` for de-escalation.
  /// With \p cache, a release pairing a cache-granted acquisition is
  /// absorbed locally.
  Status Release(TxnId txn, ResourceId resource, TxnLockCache* cache = nullptr)
      CODLOCK_EXCLUDES(registry_mu_, caches_mu_);

  /// Releases every lock of \p txn (EOT).  Returns the number released.
  /// Shards are visited once each; the transaction's attached cache (if
  /// any) is invalidated first.
  size_t ReleaseAll(TxnId txn)
      CODLOCK_EXCLUDES(registry_mu_, caches_mu_, wounded_mu_);

  /// Reduces the held mode of \p txn on \p resource to \p mode
  /// (de-escalation; mode must be weaker than or equal to the held mode).
  /// Waiters that the narrower mode no longer blocks are granted
  /// immediately.
  Status Downgrade(TxnId txn, ResourceId resource, LockMode mode,
                   TxnLockCache* cache = nullptr)
      CODLOCK_EXCLUDES(registry_mu_, caches_mu_);

  /// Registers \p cache as the held-lock cache of \p txn so that
  /// cross-thread events (wound, foreign release/downgrade, ReleaseAll)
  /// invalidate it.  One cache per transaction; re-attaching replaces.
  void AttachCache(TxnId txn, TxnLockCache* cache)
      CODLOCK_EXCLUDES(caches_mu_);

  /// Removes the registration; must be called before the cache is
  /// destroyed.
  void DetachCache(TxnId txn) CODLOCK_EXCLUDES(caches_mu_);

  /// Mode currently held by \p txn on \p resource (kNL if none).
  LockMode HeldMode(TxnId txn, ResourceId resource) const;

  /// Effective *granted group* mode of \p resource: supremum over all
  /// holders (kNL if the resource is unlocked).
  LockMode GroupMode(ResourceId resource) const;

  /// All locks currently held by \p txn.
  std::vector<HeldLock> LocksOf(TxnId txn) const;

  /// Number of resources with at least one holder or waiter.
  size_t NumEntries() const;

  /// Number of shards after clamping/rounding (inspection).
  size_t NumShards() const { return shards_.size(); }

  /// All long locks currently held (for the `LongLockStore`).
  std::vector<LongLockRecord> SnapshotLongLocks() const;

  /// All locks currently held, regardless of duration (used by the
  /// protocol validator to audit global consistency of the grant set).
  std::vector<LongLockRecord> SnapshotAllLocks() const;

  /// Long locks currently held by \p txn, in O(locks of \p txn).  Reports
  /// exactly what `SnapshotLongLocks` reports for \p txn: its holders of
  /// long duration.
  std::vector<LongLockRecord> LongLocksOf(TxnId txn) const
      CODLOCK_EXCLUDES(registry_mu_);

  /// Re-installs long locks after a crash.  All-or-nothing: the records
  /// are first validated against the locks currently held (conflicting
  /// short locks of adopted transactions, for example) and nothing is
  /// installed when any record conflicts.  Duplicate records for the same
  /// (txn, resource) merge to the supremum mode.  Intended to run during
  /// recovery quiescence (no concurrent acquires).
  Status RestoreLongLocks(const std::vector<LongLockRecord>& records)
      CODLOCK_EXCLUDES(registry_mu_, long_changes_mu_);

  // ---- Long-lock change set ------------------------------------------------
  //
  // The manager records the ids of transactions whose *long* lock set
  // changed: a long holder created, converted, downgraded or erased
  // (long grants in `Acquire`/`AcquirePath` and conversions of a long
  // holder by a request of either duration — including grants a waiter
  // receives from `GrantWaiters`, noted when its request returns —
  // `Release`/`ReleaseAll`/`Downgrade` of a long holder, and
  // `RestoreLongLocks`).  A transaction is noted only after its change is
  // visible to `LongLocksOf`, so a consumer that drains the set and then
  // reads each drained transaction never misses a change that returned
  // before the drain.  The set has a single consumer (the
  // `LongLockStore` persisting this manager); short-only transactions
  // never touch it.

  /// Makes the caller the change set's consumer: clears the set and
  /// returns a fresh token for `DrainLongLockChanges`.  Any earlier
  /// token stops draining.  Until the first reset no change is recorded
  /// (the consumer starts from a full `SnapshotLongLocks` taken *after*
  /// the reset).
  uint64_t ResetLongLockChanges() const CODLOCK_EXCLUDES(long_changes_mu_);

  /// Moves the transactions noted since the previous drain into \p out
  /// (ascending ids).  Returns false, draining nothing, when \p token is
  /// not the current consumer's (see `ResetLongLockChanges`).
  bool DrainLongLockChanges(uint64_t token, std::vector<TxnId>* out) const
      CODLOCK_EXCLUDES(long_changes_mu_);

  /// Number of requests currently blocked waiting for a lock.
  size_t NumBlockedWaiters() const {
    return blocked_waiters_.load(std::memory_order_acquire);
  }

  /// Crash/shutdown preparation: rejects requests that would have to wait
  /// from now on (they fail with kAborted), kills every blocked waiter,
  /// and returns once no request is blocked inside the manager.  After
  /// this the manager can be destroyed or abandoned without leaving a
  /// thread sleeping on a member condition variable.  The number of
  /// waiters killed is returned.
  size_t DrainForShutdown();

  LockStats& stats() { return stats_; }
  const LockStats& stats() const { return stats_; }

 private:
  enum class KillReason : uint8_t {
    kNone,
    kDeadlockVictim,
    kWounded,
    kShutdown,  ///< drained by DrainForShutdown (crash/restart)
  };

  /// Shared between the requesting thread and granters/killers.  `granted`
  /// is written and read only under the owning shard's mutex; `killed` is
  /// atomic because the waits-for graph flips it under its own lock.  Each
  /// waiter sleeps on its own condition variable (paired with the shard
  /// mutex), so grants and kills wake exactly one transaction instead of
  /// broadcasting to every waiter of the shard.
  struct WaiterState {
    TxnId txn = kInvalidTxn;
    LockMode wanted = LockMode::kNL;
    bool is_conversion = false;
    bool granted = false;
    /// Set with `granted`: the grant created or changed a long holder.
    bool long_changed = false;
    LockDuration duration = LockDuration::kShort;
    std::atomic<KillReason> killed{KillReason::kNone};
    CondVar cv;
  };

  struct Holder {
    TxnId txn = kInvalidTxn;
    LockMode mode = LockMode::kNL;
    uint32_t count = 0;
    LockDuration duration = LockDuration::kShort;
  };

  /// Lock-table entry, embedded in a per-shard bucket chain.  Every
  /// field is guarded by the owning shard's mutex (expressed as
  /// REQUIRES(shard.mu) on the accessors — the analysis cannot tie a
  /// member to a mutex in a different object).
  struct Entry {
    ResourceId res;
    Entry* next = nullptr;
    std::vector<Holder> holders;
    std::vector<std::shared_ptr<WaiterState>> waiters;
  };

  static constexpr size_t kBucketsPerShard = 256;

  struct Shard {
    mutable Mutex mu;
    /// Bucket heads of the intrusive entry chain.
    std::array<Entry*, kBucketsPerShard> buckets CODLOCK_GUARDED_BY(mu) = {};
    /// Unlinked entry nodes kept for reuse (at most `kEntryPoolSize`).
    std::vector<Entry*> retired CODLOCK_GUARDED_BY(mu);
  };

  /// Per-shard cap on pooled (retired) entry nodes beyond which retired
  /// nodes are freed outright (bounds idle memory).
  static constexpr size_t kEntryPoolSize = 32;

  /// Waits-for graph over currently blocked transactions.
  class WaitsForGraph {
   public:
    struct WaitRec {
      std::vector<TxnId> blockers;
      std::shared_ptr<WaiterState> waiter;
    };

    /// Registers/updates the blocked set of \p self and searches for a
    /// cycle through \p self.  If one is found, selects the youngest
    /// member as victim: if the victim is another waiting transaction its
    /// waiter is killed and its cv notified; the victim id is returned
    /// either way (kInvalidTxn if no cycle).
    TxnId UpdateAndCheck(TxnId self, std::vector<TxnId> blockers,
                         std::shared_ptr<WaiterState> waiter);

    /// Registers \p self as waiting without cycle detection (prevention
    /// policies still need the registry so wounds can find the waiter).
    void Register(TxnId self, std::shared_ptr<WaiterState> waiter);

    /// Kills the pending wait of \p txn (wound-wait preemption); no-op if
    /// it is not currently waiting.
    void Kill(TxnId txn, KillReason reason);

    void Remove(TxnId self);

   private:
    bool FindCycle(TxnId self, std::vector<TxnId>* cycle) const
        CODLOCK_REQUIRES(mu_);

    Mutex mu_;
    std::unordered_map<TxnId, WaitRec> waiting_ CODLOCK_GUARDED_BY(mu_);
  };

  size_t ShardIndexFor(ResourceId r) const {
    return ResourceIdHash{}(r) & shard_mask_;
  }

  size_t BucketIndexFor(ResourceId r) const {
    return (ResourceIdHash{}(r) >> shard_bits_) & (kBucketsPerShard - 1);
  }

  Shard& ShardFor(ResourceId r) const { return shards_[ShardIndexFor(r)]; }

  /// Chain lookup; nullptr when \p res has no entry.
  Entry* FindEntry(const Shard& shard, const ResourceId& res) const
      CODLOCK_REQUIRES(shard.mu);

  /// Finds or creates the entry for \p res, reusing a pooled node when
  /// one is available.
  Entry& EntryFor(Shard& shard, const ResourceId& res)
      CODLOCK_REQUIRES(shard.mu);

  /// Unlinks \p entry once it has neither holders nor waiters, pooling
  /// the node for reuse (or freeing it when the pool is full).
  void MaybeRetireEntry(Shard& shard, Entry& entry)
      CODLOCK_REQUIRES(shard.mu);

  /// Attempts an immediate grant of \p mode (no waiting): re-entrant
  /// covered acquisition, in-place conversion or fresh grant when the
  /// queue is clear and all holders are compatible.  On success sets
  /// \p granted to the mode now held, \p record_held when the caller
  /// must register the new (txn, resource) pair and \p long_changed when
  /// the caller must note a long-lock change (a long request, or a
  /// conversion of a long holder).
  bool TryGrantLocked(Shard& shard, Entry& entry, TxnId txn, LockMode mode,
                      const AcquireOptions& options, LockMode& granted,
                      bool& record_held, bool& long_changed)
      CODLOCK_REQUIRES(shard.mu);

  /// Body of `Acquire` once the shard is locked.  Sets \p record_held when
  /// the caller must register a new (txn, resource) pair in the registry
  /// after dropping the shard mutex (lock order: shard before registry),
  /// \p long_changed as `TryGrantLocked` does (also for a grant received
  /// while waiting) and \p granted to the mode held on success (for the
  /// caller's cache).
  Status AcquireLocked(Shard& shard, TxnId txn, ResourceId resource,
                       LockMode mode, const AcquireOptions& options,
                       bool& record_held, bool& long_changed,
                       LockMode& granted) CODLOCK_REQUIRES(shard.mu);

  /// `Acquire` past the cache (shard + registry + cache bookkeeping).
  Status AcquireSlow(TxnId txn, ResourceId resource, LockMode mode,
                     const AcquireOptions& options, TxnLockCache* cache)
      CODLOCK_EXCLUDES(registry_mu_);

  /// Unwinds a failed wait: dequeues the waiter, deregisters it from the
  /// waits-for graph, promotes unblocked waiters and drops an empty entry.
  void CleanupFailedWait(Shard& shard, Entry& entry, TxnId txn,
                         const WaiterState* waiter, const Stopwatch& waited)
      CODLOCK_REQUIRES(shard.mu);

  /// Grant test for (txn, target mode) against all *other* holders.
  /// Counts compatibility tests in stats.
  bool CompatibleWithHolders(const Shard& shard, const Entry& entry, TxnId txn,
                             LockMode target) CODLOCK_REQUIRES(shard.mu);

  /// Blockers of (txn, target mode): other holders with incompatible
  /// modes, plus (for non-conversion requests) earlier
  /// queued waiters.
  std::vector<TxnId> BlockersOf(const Shard& shard, const Entry& entry,
                                TxnId txn, LockMode target,
                                const WaiterState* self) const
      CODLOCK_REQUIRES(shard.mu);

  /// Promotes grantable waiters at the front of the queue and wakes each
  /// one on its own condition variable.  Called with the shard mutex held
  /// whenever holders change.
  void GrantWaiters(Shard& shard, Entry& entry) CODLOCK_REQUIRES(shard.mu);

  void EraseWaiter(Shard& shard, Entry& entry, const WaiterState* w)
      CODLOCK_REQUIRES(shard.mu);

  void RecordHeld(TxnId txn, ResourceId resource)
      CODLOCK_EXCLUDES(registry_mu_);
  /// Registers several new (txn, resource) pairs under one registry lock.
  void RecordHeldBatch(TxnId txn, std::span<const ResourceId> resources)
      CODLOCK_EXCLUDES(registry_mu_);
  void ForgetHeld(TxnId txn, ResourceId resource)
      CODLOCK_EXCLUDES(registry_mu_);
  /// Copy of \p txn's registry row (resources it may hold).
  std::vector<ResourceId> HeldResourcesOf(TxnId txn) const
      CODLOCK_EXCLUDES(registry_mu_);

  /// Adds \p txn to the long-lock change set (when a consumer exists).
  /// Call with no shard or registry mutex held, after the change is
  /// visible to `LongLocksOf`.
  void NoteLongChange(TxnId txn) CODLOCK_EXCLUDES(long_changes_mu_);

  /// Bumps the invalidation epoch of the cache attached for \p txn, if any.
  void InvalidateAttachedCache(TxnId txn) CODLOCK_EXCLUDES(caches_mu_);

  /// Marks \p txn wounded; its next acquire (and current waits) fail.
  void Wound(TxnId txn) CODLOCK_EXCLUDES(wounded_mu_);
  bool IsWounded(TxnId txn) const CODLOCK_EXCLUDES(wounded_mu_);
  void ClearWound(TxnId txn) CODLOCK_EXCLUDES(wounded_mu_);

  Options options_;
  DeadlockPolicy policy_ = DeadlockPolicy::kDetect;
  mutable std::vector<Shard> shards_;
  size_t shard_mask_ = 0;   ///< shards_.size() - 1 (power of two)
  int shard_bits_ = 0;      ///< log2(shards_.size())
  WaitsForGraph wfg_;
  LockStats stats_;

  /// Requests currently blocked in AcquireLocked (shedding + drain).
  std::atomic<size_t> blocked_waiters_{0};
  /// Set by DrainForShutdown: requests that would wait fail instead.
  std::atomic<bool> draining_{false};

  mutable Mutex wounded_mu_;
  std::unordered_set<TxnId> wounded_ CODLOCK_GUARDED_BY(wounded_mu_);
  /// Mirror of wounded_.size(): lets the hot path skip wounded_mu_ when no
  /// wound is outstanding (the overwhelmingly common case).
  std::atomic<size_t> wounded_count_{0};

  mutable Mutex registry_mu_;
  std::unordered_map<TxnId, std::vector<ResourceId>> txn_locks_
      CODLOCK_GUARDED_BY(registry_mu_);

  mutable Mutex caches_mu_;
  std::unordered_map<TxnId, TxnLockCache*> caches_
      CODLOCK_GUARDED_BY(caches_mu_);

  /// Long-lock change set (see `ResetLongLockChanges`).  A leaf mutex,
  /// taken only on long-lock paths.  The consumer resets and drains it
  /// through a const manager (`LongLockStore::Save` takes one), hence
  /// mutable.
  mutable Mutex long_changes_mu_;
  mutable uint64_t long_consumer_ CODLOCK_GUARDED_BY(long_changes_mu_) = 0;
  mutable std::unordered_set<TxnId> long_changed_
      CODLOCK_GUARDED_BY(long_changes_mu_);
  /// Mirror of caches_.size(): lets release paths skip caches_mu_ entirely
  /// when no cache is attached anywhere.
  std::atomic<size_t> cache_count_{0};
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_LOCK_MANAGER_H_
