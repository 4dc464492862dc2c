/// \file long_lock_store.h
/// \brief Crash-consistent stable storage for long locks.
///
/// §3.1: "In contrast to traditional short locks, long locks must survive
/// system shutdowns and system crashes."  The `LongLockStore` models the
/// stable storage a server keeps its check-out locks in: the server saves
/// on every check-out/check-in, and after a (simulated) crash a fresh
/// `LockManager` is reloaded from it, while all short locks are lost.
///
/// ## What a save costs: O(change), not O(table)
///
/// The store keeps its state keyed by transaction.  The lock manager
/// records which transactions' *long* lock sets changed (its long-lock
/// change set, see `LockManager::ResetLongLockChanges`); the store is the
/// set's single consumer.  `Save`, entirely under the store mutex, drains
/// the set, re-reads each drained transaction's long locks
/// (`LockManager::LongLocksOf`, O(locks of that transaction)), replaces
/// that transaction's group, and appends one delta block naming just
/// those groups.  The write path never scans the lock table.  The one
/// exception is *binding*: the first `Save` against a manager (after
/// construction, `LoadFromFile`, `Deserialize`, or when another consumer
/// took the manager's change set over) replaces the whole state with
/// `SnapshotLongLocks` and writes an image — so `Save` still means
/// "stable storage now holds this manager's long locks".
///
/// ## On-disk format (crash consistency)
///
/// The file is an *image* followed by a *delta log*:
///
///  * **Image blocks** — `[magic | generation | record count | epoch count
///    | records | fence epochs | CRC-32]`.  The magic doubles as the
///    format version: "CGN1" blocks (the pre-lease format) carry no
///    fence-epoch table and still load — their epochs default to zero;
///    "CGN2" blocks carry the per-root fencing epochs the lease subsystem
///    needs to survive server crashes.  Images are written to
///    `<path>.tmp` (previous image + its delta log + new image), flushed
///    and renamed over `<path>`.
///  * **Delta blocks** — "CGD1": `[magic | generation | group count |
///    epoch count | groups | fence epochs | CRC-32]`, one per save,
///    appended with `O_APPEND`.  A group `(txn, its complete long-lock
///    list)` *replaces* that transaction's group (an empty list erases
///    it); the epochs are the roots bumped since the last write, with
///    their current values.  Every save bumps the generation by one, so
///    consecutive deltas carry consecutive generations.
///  * **Compaction** — a save writes an image instead of a delta when the
///    delta log including the new delta would outgrow a fresh image, on
///    the first save after binding (see above), and after any failed
///    write (so no append ever lands behind torn or salvaged bytes).  The
///    image is encoded from the store's own state, never from the lock
///    table.
///  * **Recovery = image + replay** — `LoadFromFile` takes the newest
///    intact image, then replays the deltas that follow it in file order
///    while their generations are consecutive, stopping at the first torn,
///    corrupt or out-of-sequence block.  Trailing garbage (a torn append,
///    a truncated file) only costs the torn generations, never a failed
///    load.  A torn or corrupt newest image falls back to the previous
///    image and its log, i.e. to the generation just before it.  A file with no intact image recovers the empty generation 0
///    (the state before the first completed save).  `last_load()` reports
///    what was recovered and how many bytes were discarded.  Neither
///    images nor appends are fsynced: a process crash keeps what reached
///    the page cache, which is the failure model the fault points test.
///
/// Fault points (`fault/fault_injector.h`): `store/open-temp`,
/// `store/write-frame`, `store/sync`, `store/rename`,
/// `store/after-rename` on the image path; `store/write-frame` (torn
/// append) and `store/sync` (delta written, flush in doubt) on the append
/// path — the crashpoint sweep kills a save at each of them and asserts
/// the load recovers this or the previous generation.
///
/// The legacy line format (`Serialize`/`Deserialize`) is kept for human
/// inspection and in-memory round trips; file persistence always uses the
/// framed binary format.

#ifndef CODLOCK_LOCK_LONG_LOCK_STORE_H_
#define CODLOCK_LOCK_LONG_LOCK_STORE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/lock_manager.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace codlock::lock {

/// \brief One checked-out root's fencing epoch (zombie fencing).
///
/// The epoch of a root resource counts how often lease reclamation (or the
/// post-crash orphan reaper) revoked long locks on it.  A check-out ticket
/// records the epochs of its roots at grant time; any later check-in /
/// renew / resume that presents an older epoch is a zombie and fails with
/// `StatusCode::kFenced`.  Epochs are persisted with every generation so a
/// server crash can never resurrect a fenced ticket.
struct FenceEpochRecord {
  ResourceId root;
  uint64_t epoch = 0;
};

/// \brief Durable store of long-lock records.
class LongLockStore {
 public:
  /// What `LoadFromFile` recovered.
  struct LoadReport {
    uint64_t generation = 0;      ///< recovered generation (0 = empty state)
    size_t records = 0;           ///< records in the recovered generation
    size_t deltas = 0;            ///< delta blocks replayed onto the image
    bool salvaged = false;        ///< true when corrupt/torn bytes were skipped
    size_t discarded_bytes = 0;   ///< bytes not part of the recovered block
  };

  /// Makes the stored state equal the long locks currently held in
  /// \p manager and bumps the generation.  Writes only the transactions
  /// whose long locks changed since the previous save (see file comment).
  /// When a backing file is set (`SetBackingFile`), the change is
  /// persisted crash-consistently and a write/sync/rename failure is
  /// returned — the caller must not treat the locks as durable in that
  /// case.  Every lock granted or released before the call is reflected
  /// once it returns OK, whatever other saves run concurrently.
  Status Save(const LockManager& manager);

  /// Re-installs the stored snapshot into \p manager (normally a freshly
  /// constructed one, after a crash).
  Status Restore(LockManager* manager) const;

  /// Records currently in stable storage.
  std::vector<LongLockRecord> records() const;

  size_t size() const;

  /// Fencing epoch of \p root (0 = never reclaimed).
  uint64_t FenceEpochOf(ResourceId root) const;

  /// Monotonically bumps \p root's fencing epoch (lease reclaim / orphan
  /// reap) and returns the new value.  Durable from the next `Save`.
  uint64_t BumpFenceEpoch(ResourceId root);

  /// All non-zero fencing epochs (inspection, sweep invariants).
  std::vector<FenceEpochRecord> FenceEpochs() const;

  /// Generation number of the current snapshot (0 before the first Save).
  uint64_t generation() const;

  /// File that `Save` persists to ("" = in-memory only).
  void SetBackingFile(std::string path);
  std::string backing_file() const;

  /// Serializes the snapshot ("txn node instance mode\n" per record);
  /// legacy line format, not crash-consistent.
  std::string Serialize() const;

  /// Replaces the snapshot by parsing \p data (format of `Serialize`).
  Status Deserialize(const std::string& data);

  /// Writes the state to \p path as an image (previous image + its delta
  /// log + current image, via temp file + atomic rename).
  Status WriteToFile(const std::string& path);

  /// Loads the newest intact image from \p path and replays the deltas
  /// behind it (see file comment);
  /// kNotFound when the file does not exist, OK otherwise — corruption is
  /// salvaged, never fatal.  `last_load()` describes the outcome.
  Status LoadFromFile(const std::string& path);

  /// Outcome of the most recent `LoadFromFile`.
  LoadReport last_load() const;

 private:
  /// Replaces \p txn's group (an empty \p records erases it).
  void ReplaceGroupLocked(TxnId txn, std::vector<LongLockRecord> records)
      CODLOCK_REQUIRES(mu_);

  /// Replaces the whole state with \p records (any order).
  void ReplaceAllLocked(const std::vector<LongLockRecord>& records)
      CODLOCK_REQUIRES(mu_);

  /// All records, grouped by ascending txn.
  std::vector<LongLockRecord> FlattenLocked() const CODLOCK_REQUIRES(mu_);

  /// Byte size of an image of the current state.
  size_t ImageSizeLocked() const CODLOCK_REQUIRES(mu_);

  /// Encodes the current state as one image block.
  std::string EncodeBlockLocked() const CODLOCK_REQUIRES(mu_);

  /// Encodes the groups of \p txns and the dirty epochs as one delta.
  std::string EncodeDeltaLocked(const std::vector<TxnId>& txns) const
      CODLOCK_REQUIRES(mu_);

  /// Appends \p delta to the backing file.
  Status AppendDeltaLocked(const std::string& delta) CODLOCK_REQUIRES(mu_);

  /// Body of `WriteToFile` with mu_ held (shared with `Save`).
  Status WriteToFileLocked(const std::string& path) CODLOCK_REQUIRES(mu_);

  /// Forgets what the backing file holds beyond its image: the next save
  /// against any manager rebinds and writes an image.
  void ResetFileStateLocked() CODLOCK_REQUIRES(mu_);

  mutable Mutex mu_;
  /// Long locks by transaction, ascending (deterministic images).
  std::map<TxnId, std::vector<LongLockRecord>> groups_ CODLOCK_GUARDED_BY(mu_);
  size_t num_records_ CODLOCK_GUARDED_BY(mu_) = 0;
  /// Per-root fencing epochs; kept independent of the groups (an epoch
  /// must outlive the locks it fences).
  std::unordered_map<ResourceId, uint64_t, ResourceIdHash> epochs_
      CODLOCK_GUARDED_BY(mu_);
  /// Roots bumped since the last write (the next delta carries them).
  std::unordered_set<ResourceId, ResourceIdHash> dirty_epochs_
      CODLOCK_GUARDED_BY(mu_);
  uint64_t generation_ CODLOCK_GUARDED_BY(mu_) = 0;
  /// Change-set token of the manager the state mirrors (0 = none: the
  /// next save binds with a full snapshot).
  uint64_t consumer_token_ CODLOCK_GUARDED_BY(mu_) = 0;
  /// True when the backing file may not be appended to (not yet written
  /// by this store, just loaded, a write failed, or the state was rebound
  /// to a manager): the next save writes an image.
  bool need_image_ CODLOCK_GUARDED_BY(mu_) = true;
  /// Raw bytes of the last successfully persisted (or loaded) image and
  /// of the intact delta log behind it in the backing file.  The next
  /// image write keeps both ahead of the new image, so a corrupted newest
  /// image still recovers the generation just before it.
  std::string prev_block_ CODLOCK_GUARDED_BY(mu_);
  std::string log_ CODLOCK_GUARDED_BY(mu_);
  std::string backing_path_ CODLOCK_GUARDED_BY(mu_);
  LoadReport last_load_ CODLOCK_GUARDED_BY(mu_);
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_LONG_LOCK_STORE_H_
