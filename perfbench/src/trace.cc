#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "lock/mode.h"
#include "util/retry.h"
#include "util/rng.h"

namespace perfbench {

using codlock::Result;
using codlock::Status;
namespace lock = codlock::lock;
namespace query = codlock::query;
namespace txn = codlock::txn;

namespace {
thread_local TraceLog* tls_log = nullptr;
}  // namespace

const char* SpanName(SpanKind kind) {
  static const char* const kNames[kSpanKinds] = {
      "op", "query.planner", "txn.begin", "query.executor", "proto.co_protocol",
      "txn.commit", "txn.abort", "lock.long_lock_store", "trace.capture"};
  return kNames[static_cast<int>(kind)];
}

ScopedTraceLog::ScopedTraceLog(TraceLog* log) : prev_(tls_log) { tls_log = log; }
ScopedTraceLog::~ScopedTraceLog() { tls_log = prev_; }

ScopedSpan::ScopedSpan(SpanKind kind) : log_(tls_log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->spans.push_back(Span{log_->current_op, log_->open, kind, NowNs(), 0});
  log_->open = index_;
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  Span& s = log_->spans[static_cast<size_t>(index_)];
  s.end_ns = NowNs();
  log_->open = s.parent;
}

void BeginOp(int kind, uint64_t id) {
  if (tls_log == nullptr) return;
  tls_log->current_op = id;
  tls_log->ops.push_back(OpRecord{kind, id, {}, 0, 0});
}

void BeginAttempt(bool released_here, bool fresh_txn) {
  if (tls_log == nullptr || tls_log->ops.empty()) return;
  tls_log->ops.back().attempts.push_back(Attempt{{}, released_here});
  if (fresh_txn) tls_log->seen.clear();
}

// ---------------------------------------------------------------------------
// TracingProtocol

Status TracingProtocol::Lock(txn::Transaction& t,
                             const codlock::proto::LockTarget& target,
                             lock::LockMode mode) {
  Status s;
  {
    ScopedSpan span(SpanKind::kProto);
    s = inner_->Lock(t, target, mode);
  }
  return s;
}

Status TracingProtocol::LockEntryPoint(txn::Transaction& t,
                                       const codlock::proto::LockTarget& ref_path,
                                       lock::LockMode mode) {
  Status s;
  {
    ScopedSpan span(SpanKind::kProto);
    s = inner_->LockEntryPoint(t, ref_path, mode);
  }
  return s;
}

Status TracingProtocol::LockNewValueRefs(txn::Transaction& t,
                                         const codlock::nf2::Value& v,
                                         lock::LockMode mode) {
  Status s;
  {
    ScopedSpan span(SpanKind::kProto);
    s = inner_->LockNewValueRefs(t, v, mode);
  }
  return s;
}

// The locks the attempt added since the last capture (new resources, or
// stronger modes on held ones), in acquisition order, cut into AcquirePath
// chains: a run of intention locks followed by a leaf whose intention mode
// they all carry.  Anything else replays as a one-element chain.
void TracingProtocol::Capture(lock::TxnId id) {
  TraceLog* log = tls_log;
  if (log == nullptr || log->ops.empty() || log->ops.back().attempts.empty() ||
      (log->ops.size() - 1) % capture_every_ != 0) {
    return;
  }
  ScopedSpan span(SpanKind::kCapture);
  log->ops.back().attempts.back().captured = true;
  std::vector<lock::HeldLock> delta;
  for (const lock::HeldLock& h : lm_->LocksOf(id)) {
    auto [it, inserted] = log->seen.try_emplace(h.resource, h.mode);
    if (!inserted) {
      if (it->second == h.mode) continue;
      it->second = h.mode;
    }
    delta.push_back(h);
  }
  std::vector<Chain>& chains = log->ops.back().attempts.back().chains;
  std::vector<lock::HeldLock> run;
  auto flush_singles = [&chains](const std::vector<lock::HeldLock>& locks) {
    for (const lock::HeldLock& h : locks) {
      chains.push_back(Chain{{h.resource}, h.mode, h.duration});
    }
  };
  for (const lock::HeldLock& h : delta) {
    if (lock::IsIntention(h.mode)) {
      run.push_back(h);
      continue;
    }
    const lock::LockMode prefix = lock::IntentionFor(h.mode);
    bool chainable = true;
    for (const lock::HeldLock& r : run) chainable &= r.mode == prefix;
    if (chainable) {
      Chain c{{}, h.mode, h.duration};
      for (const lock::HeldLock& r : run) c.path.push_back(r.resource);
      c.path.push_back(h.resource);
      chains.push_back(std::move(c));
    } else {
      flush_singles(run);
      flush_singles({h});
    }
    run.clear();
  }
  flush_singles(run);
}

// ---------------------------------------------------------------------------
// DecomposedStack

namespace {
query::QueryExecutor::Options ExecutorOptions(txn::UndoLog* undo) {
  query::QueryExecutor::Options o;
  o.apply_writes = true;
  o.undo = undo;
  return o;
}
}  // namespace

DecomposedStack::DecomposedStack(
    const codlock::nf2::Catalog* catalog, codlock::nf2::InstanceStore* store,
    const std::function<void(codlock::authz::AuthorizationManager&)>& grant,
    const std::string& store_path, size_t capture_every)
    : graph_(codlock::logra::LockGraph::Build(*catalog)),
      stats_(query::Statistics::Collect(*catalog, *store)),
      lm_(lock::LockManager::Options()),
      txns_(&lm_, &undo_, store),
      protocol_(&graph_, store, &lm_, &authz_,
                codlock::proto::ComplexObjectProtocol::Options()),
      traced_(&protocol_, &lm_, capture_every),
      planner_(&graph_, catalog, &stats_, query::LockPlanner::Options()),
      executor_(&graph_, catalog, store, &traced_, ExecutorOptions(&undo_)) {
  grant(authz_);
  if (!store_path.empty()) {
    long_store_.SetBackingFile(store_path);
    persist_ = true;
  }
}

Result<query::QueryResult> DecomposedStack::ShortTxn(codlock::authz::UserId user,
                                                     const query::Query& q) {
  Result<query::QueryPlan> plan = Status::OK();
  {
    ScopedSpan span(SpanKind::kPlan);
    plan = planner_.Plan(q);
  }
  if (!plan.ok()) return plan.status();
  const codlock::RetryPolicy retry;
  for (int attempt = 1;; ++attempt) {
    BeginAttempt(/*released_here=*/true, /*fresh_txn=*/true);
    txn::Transaction* t = nullptr;
    {
      ScopedSpan span(SpanKind::kBegin);
      t = txns_.Begin(user, txn::TxnKind::kShort);
    }
    const lock::TxnId id = t->id();
    Result<query::QueryResult> result = Status::OK();
    {
      ScopedSpan span(SpanKind::kExecute);
      result = executor_.Execute(*t, q, *plan);
    }
    traced_.Capture(id);
    if (result.ok()) {
      ScopedSpan span(SpanKind::kCommit);
      Status committed = txns_.Commit(t);
      if (!committed.ok()) return committed;
      return result;
    }
    const Status failure = result.status();
    {
      ScopedSpan span(SpanKind::kAbort);
      txns_.Abort(t, failure);
    }
    if (!retry.ShouldRetry(failure, attempt)) return failure;
    lm_.stats().retries.Add();
    codlock::Rng rng(0x9E3779B97F4A7C15ULL ^ (id * 0xBF58476D1CE4E5B9ULL));
    const uint64_t backoff_us = retry.BackoffUs(attempt, rng);
    if (backoff_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

Status DecomposedStack::Save() {
  Status s;
  {
    ScopedSpan span(SpanKind::kSave);
    s = long_store_.Save(lm_);
  }
  if (TraceLog* log = tls_log) {
    ScopedSpan span(SpanKind::kCapture);
    log->save_records.push_back(static_cast<double>(long_store_.size()));
  }
  return s;
}

Result<txn::Transaction*> DecomposedStack::CheckOut(codlock::authz::UserId user,
                                                    const query::Query& q) {
  Result<query::QueryPlan> plan = Status::OK();
  {
    ScopedSpan span(SpanKind::kPlan);
    plan = planner_.Plan(q);
  }
  if (!plan.ok()) return plan.status();
  BeginAttempt(/*released_here=*/false, /*fresh_txn=*/true);
  txn::Transaction* t = nullptr;
  {
    ScopedSpan span(SpanKind::kBegin);
    t = txns_.Begin(user, txn::TxnKind::kLong);
  }
  Result<query::QueryResult> data = Status::OK();
  {
    ScopedSpan span(SpanKind::kExecute);
    data = executor_.Execute(*t, q, *plan);
  }
  traced_.Capture(t->id());
  Status s = data.ok() ? (persist_ ? Save() : Status::OK()) : data.status();
  if (!s.ok()) {
    ScopedSpan span(SpanKind::kAbort);
    txns_.Abort(t);
    return s;
  }
  return t;
}

Status DecomposedStack::CheckIn(txn::Transaction* t, const query::Query& q) {
  BeginAttempt(/*released_here=*/true, /*fresh_txn=*/false);
  if (q.is_write()) {
    Result<query::QueryPlan> plan = Status::OK();
    {
      ScopedSpan span(SpanKind::kPlan);
      plan = planner_.Plan(q);
    }
    if (!plan.ok()) return plan.status();
    Result<query::QueryResult> applied = Status::OK();
    {
      ScopedSpan span(SpanKind::kExecute);
      applied = executor_.Execute(*t, q, *plan);
    }
    if (!applied.ok()) return applied.status();
  }
  traced_.Capture(t->id());
  {
    ScopedSpan span(SpanKind::kCommit);
    CODLOCK_RETURN_IF_ERROR(txns_.Commit(t));
  }
  return persist_ ? Save() : Status::OK();
}

// ---------------------------------------------------------------------------
// Rung 4

void ReplayChains(lock::LockManager& lm, TraceLog& log, lock::TxnId first_txn) {
  lock::TxnId next = first_txn;
  lock::TxnId cur = lock::kInvalidTxn;
  std::unique_ptr<lock::TxnLockCache> cache;
  for (OpRecord& op : log.ops) {
    for (const Attempt& a : op.attempts) {
      if (!a.captured) continue;
      if (cur == lock::kInvalidTxn && !a.chains.empty()) {
        cur = next++;
        cache = std::make_unique<lock::TxnLockCache>();
        lm.AttachCache(cur, cache.get());
      }
      for (const Chain& c : a.chains) {
        lock::AcquireOptions o;
        o.duration = c.duration;
        const uint64_t t0 = NowNs();
        const Status s = lm.AcquirePath(cur, c.path, c.leaf, o, cache.get());
        const double dt = static_cast<double>(NowNs() - t0);
        op.lm_acquire_ns += dt;
        log.acquire_path_us.push_back(dt / 1e3);
        if (!s.ok()) ++log.replay_failures;
      }
      if (a.released_here && cur != lock::kInvalidTxn) {
        const uint64_t t0 = NowNs();
        lm.ReleaseAll(cur);
        op.lm_release_ns += static_cast<double>(NowNs() - t0);
        lm.DetachCache(cur);
        cur = lock::kInvalidTxn;
      }
    }
  }
  if (cur != lock::kInvalidTxn) {
    lm.ReleaseAll(cur);
    lm.DetachCache(cur);
  }
}

// ---------------------------------------------------------------------------
// Self times

SelfTimes ComputeSelfTimes(const std::vector<TraceLog>& logs, int kind) {
  SelfTimes out;
  struct Sums {
    double by_kind[kSpanKinds] = {};
  };
  for (const TraceLog& log : logs) {
    std::unordered_map<uint64_t, Sums> sums;
    for (const Span& s : log.spans) {
      sums[s.op].by_kind[static_cast<int>(s.kind)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
    for (const OpRecord& op : log.ops) {
      if (kind >= 0 && op.kind != kind) continue;
      if (std::any_of(op.attempts.begin(), op.attempts.end(),
                      [](const Attempt& a) { return !a.captured; })) {
        continue;
      }
      const Sums& s = sums[op.id];
      auto k = [&s](SpanKind sk) { return s.by_kind[static_cast<int>(sk)]; };
      const double total = k(SpanKind::kOp) - k(SpanKind::kCapture);
      const double txn_spans =
          k(SpanKind::kBegin) + k(SpanKind::kCommit) + k(SpanKind::kAbort);
      const double exec = k(SpanKind::kExecute);
      out.total.push_back(total);
      out.planner.push_back(k(SpanKind::kPlan));
      out.txn.push_back(txn_spans - op.lm_release_ns);
      out.executor.push_back(exec - k(SpanKind::kProto));
      out.protocol.push_back(k(SpanKind::kProto) - op.lm_acquire_ns);
      out.lock_manager.push_back(op.lm_acquire_ns + op.lm_release_ns);
      out.store.push_back(k(SpanKind::kSave));
      out.glue.push_back(total - k(SpanKind::kPlan) - txn_spans - exec -
                         k(SpanKind::kSave));
    }
    // Raw per-call span durations of the selected operations.
    std::unordered_map<uint64_t, int> kind_of;
    for (const OpRecord& op : log.ops) kind_of[op.id] = op.kind;
    for (const Span& s : log.spans) {
      if (kind >= 0 && kind_of[s.op] != kind) continue;
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      switch (s.kind) {
        case SpanKind::kPlan: out.plan_us.push_back(us); break;
        case SpanKind::kBegin: out.begin_us.push_back(us); break;
        case SpanKind::kCommit: out.commit_us.push_back(us); break;
        case SpanKind::kProto: out.proto_call_us.push_back(us); break;
        case SpanKind::kSave: out.save_us.push_back(us); break;
        default: break;
      }
    }
  }
  return out;
}

void WriteSpans(const std::vector<TraceLog>& logs, const std::string& path,
                size_t max_ops) {
  std::ofstream out(path, std::ios::trunc);
  out << "thread\top\tspan\tparent\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    const TraceLog& log = logs[t];
    if (log.ops.empty()) continue;
    const uint64_t last_op = log.ops[std::min(max_ops, log.ops.size()) - 1].id;
    for (const Span& s : log.spans) {
      if (s.op > last_op) break;
      out << t << '\t' << s.op << '\t' << SpanName(s.kind) << '\t' << s.parent
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

}  // namespace perfbench
