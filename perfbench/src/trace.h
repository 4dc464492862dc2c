// The traced run's tooling: spans recorded from the benchmark's own
// files, a span-recording wrapper around the real lock protocol, the
// decomposed stack built from public constructors (ladder rung 3), and
// the replay of captured lock chains straight into the lock manager
// (rung 4).
//
// Spans live in per-thread logs (no shared state on the measured path)
// and are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "authz/authz.h"
#include "common.h"
#include "lock/long_lock_store.h"
#include "logra/lock_graph.h"
#include "proto/co_protocol.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/statistics.h"
#include "txn/txn_manager.h"
#include "txn/undo_log.h"

namespace perfbench {

/// Layer boundaries a span can mark.  `kCapture` is the tracer's own
/// lock-chain capture; its time is excluded from every other span.
enum class SpanKind : uint8_t {
  kOp,
  kPlan,
  kBegin,
  kExecute,
  kProto,
  kCommit,
  kAbort,
  kSave,
  kCapture,
};
inline constexpr int kSpanKinds = 9;
const char* SpanName(SpanKind kind);

struct Span {
  uint64_t op = 0;      ///< request id shared by all spans of one operation
  int32_t parent = -1;  ///< index of the enclosing span in the same log
  SpanKind kind = SpanKind::kOp;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// A root-to-leaf chain as `LockManager::AcquirePath` takes it.
struct Chain {
  std::vector<codlock::lock::ResourceId> path;
  codlock::lock::LockMode leaf = codlock::lock::LockMode::kNL;
  codlock::lock::LockDuration duration = codlock::lock::LockDuration::kShort;
};

/// Lock chains one transaction attempt acquired, in acquisition order.
struct Attempt {
  std::vector<Chain> chains;
  /// True when the attempt's locks are released within this operation
  /// (commit or abort); a check-out's locks are released by its check-in.
  bool released_here = true;
  /// True when the tracer captured this attempt's locks (sampled).
  bool captured = false;
};

/// One traced operation.
struct OpRecord {
  int kind = 0;  ///< workload-defined operation kind
  uint64_t id = 0;
  std::vector<Attempt> attempts;
  /// Filled by the rung-4 replay.
  double lm_acquire_ns = 0;
  double lm_release_ns = 0;
};

/// Per-thread trace log.  A client thread installs its log with
/// `ScopedTraceLog`; with no log installed every span is a no-op, so the
/// same code path runs untraced.  Each log has its own cache lines.
struct alignas(64) TraceLog {
  std::vector<Span> spans;
  std::vector<OpRecord> ops;
  std::vector<double> acquire_path_us;  ///< rung 4, per AcquirePath call
  std::vector<double> save_records;     ///< records stored per Save
  uint64_t replay_failures = 0;         ///< rung-4 chains not granted
  int32_t open = -1;                    ///< innermost open span
  uint64_t current_op = 0;
  /// Capture state of the current attempt: the modes already seen.
  std::unordered_map<codlock::lock::ResourceId, codlock::lock::LockMode,
                     codlock::lock::ResourceIdHash>
      seen;
};

class ScopedTraceLog {
 public:
  explicit ScopedTraceLog(TraceLog* log);
  ~ScopedTraceLog();
  ScopedTraceLog(const ScopedTraceLog&) = delete;
  ScopedTraceLog& operator=(const ScopedTraceLog&) = delete;

 private:
  TraceLog* prev_;
};

/// Records one span over its scope (no-op when untraced).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLog* log_;
  int32_t index_ = -1;
};

/// Starts a new traced operation (a `kOp` span is opened by the caller).
void BeginOp(int kind, uint64_t id);
/// Starts a new attempt of the current operation.  \p fresh_txn resets
/// the capture (a new transaction holds nothing yet).
void BeginAttempt(bool released_here, bool fresh_txn);

/// \brief Span-recording wrapper around the real protocol.  `Capture`,
/// called once per transaction attempt after execution (in its own span,
/// excluded from the layers), records the locks the attempt acquired as
/// chains for the rung-4 replay.  Only every `capture_every`-th operation
/// is captured: the capture walks the transaction's locks, and doing it
/// for every operation would change how often the client threads collide.
class TracingProtocol : public codlock::proto::LockProtocol {
 public:
  TracingProtocol(codlock::proto::LockProtocol* inner,
                  const codlock::lock::LockManager* lm, size_t capture_every)
      : inner_(inner), lm_(lm), capture_every_(capture_every) {}

  std::string_view name() const override { return inner_->name(); }
  codlock::Status Lock(codlock::txn::Transaction& txn,
                       const codlock::proto::LockTarget& target,
                       codlock::lock::LockMode mode) override;
  codlock::Status LockEntryPoint(codlock::txn::Transaction& txn,
                                 const codlock::proto::LockTarget& ref_path,
                                 codlock::lock::LockMode mode) override;
  codlock::Status LockNewValueRefs(codlock::txn::Transaction& txn,
                                   const codlock::nf2::Value& v,
                                   codlock::lock::LockMode mode) override;

  void Capture(codlock::lock::TxnId txn);

 private:
  codlock::proto::LockProtocol* inner_;
  const codlock::lock::LockManager* lm_;
  size_t capture_every_;
};

/// \brief Ladder rung 3: the server's stack assembled from public
/// constructors, with the protocol wrapped by `TracingProtocol`.  Its
/// operations repeat what `ws::Server` does for the same request.
class DecomposedStack {
 public:
  DecomposedStack(const codlock::nf2::Catalog* catalog,
                  codlock::nf2::InstanceStore* store,
                  const std::function<void(codlock::authz::AuthorizationManager&)>&
                      grant,
                  const std::string& store_path, size_t capture_every);

  /// `Server::RunShortTxn`: plan once, then begin/execute/commit with the
  /// default retry policy.
  codlock::Result<codlock::query::QueryResult> ShortTxn(
      codlock::authz::UserId user, const codlock::query::Query& q);
  /// `Server::CheckOut` without the lease: plan, begin a long
  /// transaction, execute, persist the long locks.
  codlock::Result<codlock::txn::Transaction*> CheckOut(
      codlock::authz::UserId user, const codlock::query::Query& q);
  /// `Server::CheckIn` without the fence and lease: re-execute the
  /// writes, commit, persist.
  codlock::Status CheckIn(codlock::txn::Transaction* txn,
                          const codlock::query::Query& q);

  codlock::lock::LockManager& lock_manager() { return lm_; }
  codlock::lock::LongLockStore& long_store() { return long_store_; }

 private:
  codlock::Status Save();

  codlock::logra::LockGraph graph_;
  codlock::authz::AuthorizationManager authz_;
  codlock::query::Statistics stats_;
  codlock::lock::LockManager lm_;
  codlock::txn::UndoLog undo_;
  codlock::txn::TxnManager txns_;
  codlock::proto::ComplexObjectProtocol protocol_;
  TracingProtocol traced_;
  codlock::query::LockPlanner planner_;
  codlock::query::QueryExecutor executor_;
  codlock::lock::LongLockStore long_store_;
  bool persist_ = false;
};

/// Ladder rung 4: replays every captured chain of \p log's operations
/// through `LockManager::AcquirePath`, releasing with `ReleaseAll` where
/// the traced operation released, and fills the operations' lock-manager
/// times.  Replay transactions take ids from \p first_txn upwards.
void ReplayChains(codlock::lock::LockManager& lm, TraceLog& log,
                  codlock::lock::TxnId first_txn);

/// Per-operation self times (ns) of the decomposed stack, by layer.
struct SelfTimes {
  std::vector<double> total;     ///< kOp span minus capture
  std::vector<double> planner;
  std::vector<double> txn;       ///< begin + commit + abort - release
  std::vector<double> executor;  ///< execute - protocol - capture
  std::vector<double> protocol;  ///< protocol spans - lock-manager acquire
  std::vector<double> lock_manager;
  std::vector<double> store;     ///< LongLockStore::Save
  std::vector<double> glue;      ///< op time outside every layer span
  // Raw span durations (µs), for the per-layer percentiles.
  std::vector<double> plan_us, begin_us, commit_us, proto_call_us, save_us;
};

/// Aggregates the spans of \p logs into self times for the captured
/// operations of \p kind (all kinds when negative).
SelfTimes ComputeSelfTimes(const std::vector<TraceLog>& logs, int kind);

/// Writes the spans of the first \p max_ops operations of each log as
/// tab-separated lines to \p path (a bounded sample: a dump of every span
/// of a long run would be hundreds of megabytes).
void WriteSpans(const std::vector<TraceLog>& logs, const std::string& path,
                size_t max_ops = 5000);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
