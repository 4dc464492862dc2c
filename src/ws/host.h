/// \file host.h
/// \brief The host side of the out-of-process serving split: owns the
/// `ws::Server` (lock tables, leases, stable storage) and drains the
/// shared-memory job ring.
///
/// Robustness model (DESIGN.md §12):
///
///  * **Admission control** — `Submit` enforces a bounded in-flight job
///    count per handle and a global cap before a frame may publish;
///    beyond either the job is rejected with `Status::Shed` (counted in
///    `sheds` and `jobs_shed_per_handle`) and the client backs off with
///    the PR 4 retry policy.  A wedged client can therefore hold at most
///    `max_inflight_per_handle` slots hostage — never the ring.
///  * **Dead-handle detection** — every executed job bumps its handle's
///    last-seen time (virtual clock).  `SweepDeadHandles` fences handles
///    silent past `handle_lease_ms`: the handle epoch is bumped
///    (`handles_fenced`), its ring slots are reclaimed, and its
///    check-out leases — which the dead client has stopped renewing —
///    fall to the *existing* lease sweep, which releases the locks and
///    bumps the root fencing epochs.
///  * **Host-crash recovery** — `CrashAndRestart` rides the server's
///    durable recovery (`LongLockStore` generation + fencing epochs),
///    reinitializes the ring (in-flight jobs are lost and accounted),
///    and starts a new host incarnation: every pre-crash handle is a
///    zombie (`Status::Fenced`) until it re-attaches; its *tickets*
///    remain protected by the durable root epochs either way.
#ifndef CODLOCK_WS_HOST_H_
#define CODLOCK_WS_HOST_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "ws/handle.h"
#include "ws/server.h"
#include "ws/shm_ring.h"

namespace codlock::ws {

struct HostOptions {
  RingOptions ring;
  /// Bounded in-flight jobs per handle; beyond it Submit sheds.
  size_t max_inflight_per_handle = 8;
  /// Global in-flight cap; 0 derives ring.slots (the transport bound).
  size_t max_inflight_total = 0;
  /// A handle silent (no executed job, no ping) for this long is fenced
  /// by `SweepDeadHandles`.  Virtual-clock milliseconds.
  uint64_t handle_lease_ms = 30'000;
  Server::Options server;
};

/// \brief Host: `ws::Server` + job ring + handle registry.
class Host {
 public:
  Host(const nf2::Catalog* catalog, nf2::InstanceStore* store,
       HostOptions options);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // --- handle lifecycle --------------------------------------------

  /// Registers a new handle under the current incarnation.
  HandleInfo Attach();
  /// Associates an OS process with a handle: the dead-handle sweep then
  /// probes the PID (`kill(pid, 0)` → ESRCH) and fences the handle the
  /// moment the process is gone — no lease timeout needed, and the
  /// reclaim may safely cover kTaking strands (the owner provably has no
  /// live thread inside TakeResponse).  0 unbinds.
  Status BindPid(uint64_t handle_id, int64_t pid);
  /// Post-restart re-registration: a known, un-fenced handle gets a
  /// fresh epoch under the new incarnation; a fenced one stays rejected
  /// with kFenced (it must Attach anew and re-check its data out).
  Result<HandleInfo> Reattach(uint64_t handle_id);
  Status Detach(uint64_t handle_id);

  // --- transport (called by Handle) --------------------------------

  /// Admission control + publish.  Rejects zombies/fenced handles with
  /// kFenced and over-cap submits with kShed *before* touching the ring.
  Result<size_t> Submit(const HandleInfo& who, uint64_t job_id,
                        std::string_view request,
                        PublishFault fault = PublishFault::kNone);
  /// Response pickup; decrements the handle's in-flight count.
  Result<std::string> Take(const HandleInfo& who, size_t slot,
                           uint64_t job_id);

  // --- draining ----------------------------------------------------

  /// Executes published jobs until the ring is quiet; returns the count
  /// executed.  An injected host crash (`ws.host.crash`,
  /// `ws.ring.consume`) surfaces as the error status — the job strands
  /// and only `CrashAndRestart` recovers it.
  Result<size_t> Drain();
  /// Executes at most one job; false when none was published.
  Result<bool> Step();

  /// Worker threads parked on the ring's futex-style wait.
  void StartWorkers(int n);
  void StopWorkers();
  bool workers_running() const;

  // --- robustness --------------------------------------------------

  /// Fences every handle silent past `handle_lease_ms` — or whose bound
  /// PID is verifiably dead (see BindPid), with no lease wait — and
  /// reclaims its ring slots, then runs the server's lease sweep (the
  /// dead client's check-outs have stopped renewing — the existing
  /// reclamation path releases their locks and bumps the root epochs).
  /// Returns the number of handles fenced by this pass.
  size_t SweepDeadHandles();

  /// Host process death + restart: workers are assumed stopped (or are
  /// stopped here), the server recovers from stable storage, the ring
  /// is reinitialized, and a new incarnation begins — all live handles
  /// must Reattach; un-reattached ones submit as zombies (kFenced).
  Status CrashAndRestart();

  // --- observability -----------------------------------------------

  Server& server() { return server_; }
  const Server& server() const { return server_; }
  ShmRing& ring() { return ring_; }
  /// Non-OK when the ring transport failed to initialize (shm backends:
  /// segment creation failed).  A host with a dead ring still serves
  /// nothing — callers must check after construction.
  const Status& ring_status() const { return ring_.init_status(); }
  uint64_t incarnation() const;
  const HostOptions& options() const { return options_; }

  struct HandleView {
    uint64_t handle_id = 0;
    uint64_t epoch = 0;
    bool fenced = false;
    bool stale = false;  ///< attached to a previous incarnation
    size_t inflight = 0;
    uint64_t sheds = 0;  ///< jobs shed at this handle's in-flight cap
    uint64_t last_seen_ms = 0;
    int64_t pid = 0;  ///< bound OS process (0 = none)
  };
  std::vector<HandleView> HandleTable() const;
  size_t LiveHandles() const;
  size_t TotalInFlight() const;

 private:
  struct HandleEntry {
    uint64_t epoch = 1;
    bool fenced = false;
    bool stale = false;
    size_t inflight = 0;
    uint64_t sheds = 0;
    uint64_t last_seen_ms = 0;
    int64_t pid = 0;
    /// Set when the fencing decision saw the bound PID dead: the reclaim
    /// may then cover kTaking strands too.
    bool pid_dead = false;
  };

  /// Executes one consumed job against the server and completes the
  /// slot.  The frame's handle epoch is re-checked first: a job from a
  /// since-fenced handle is answered kFenced without touching the
  /// server (its in-flight abort path).
  void ExecuteJob(const ShmRing::Job& job);
  std::string RunJob(const wire::Request& req, uint64_t handle_id);
  void NoteSalvaged(const std::vector<ShmRing::SalvagedFrame>& salvaged);
  void WorkerLoop();

  const HostOptions options_;
  Server server_;
  ShmRing ring_;

  mutable Mutex mu_;
  std::map<uint64_t, HandleEntry> handles_ CODLOCK_GUARDED_BY(mu_);
  uint64_t next_handle_id_ CODLOCK_GUARDED_BY(mu_) = 1;
  uint64_t incarnation_ CODLOCK_GUARDED_BY(mu_) = 1;
  size_t total_inflight_ CODLOCK_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> workers_;
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> workers_running_{false};
};

}  // namespace codlock::ws

#endif  // CODLOCK_WS_HOST_H_
