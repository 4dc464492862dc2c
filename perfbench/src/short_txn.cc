// short_shared_update and short_deep_read: short transactions through
// `ws::Server::RunShortTxn`, no long locks and no ring.
//
// short_shared_update is the paper's Q2 || Q3 case at a 16-cell hot set:
// robots of one cell share effectors, users may modify cells but only
// read effectors, so rule 4' takes S on the effector entry points while
// robot updates X-lock their robots.  The protocol's propagation, lock
// waits and conversions do the work.
//
// short_deep_read drives the same entry point on a deep synthetic schema
// (depth 4, fanout 4, one library reference per leaf): whole-object reads
// take ~255 mostly S/IS requests each, so the fast path, the
// transaction lock cache and the per-grant counters dominate.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/fixtures.h"
#include "util/rng.h"
#include "workloads.h"
#include "ws/server.h"

namespace perfbench {

namespace {

using codlock::Result;
using codlock::Status;
namespace authz = codlock::authz;
namespace nf2 = codlock::nf2;
namespace query = codlock::query;
namespace sim = codlock::sim;
namespace ws = codlock::ws;

constexpr authz::UserId kUser = 1;

enum ShortKind { kRead = 0, kUpdate = 1 };

/// One workload's data and the server over it.
struct ShortSetup {
  std::unique_ptr<nf2::Catalog> catalog;
  std::unique_ptr<nf2::InstanceStore> store;
  nf2::RelationId main = 0;    ///< cells / parts
  nf2::RelationId shared = 0;  ///< effectors / library
  std::vector<std::string> keys;
  std::unique_ptr<ws::Server> server;
  /// What each query kind returns on this data (from a probe at setup).
  query::QueryResult expected[2];
};

struct Spec {
  bool deep = false;
  double read_share = 0;
  /// Warm-up transactions per client (see kWarmupCapS).
  uint64_t warmup_txns = 0;
};

void Grant(const ShortSetup& s, authz::AuthorizationManager& a) {
  a.Grant(kUser, s.main, authz::Right::kRead);
  a.Grant(kUser, s.main, authz::Right::kModify);
  a.Grant(kUser, s.shared, authz::Right::kRead);
}

/// The seeded operation stream: thread \p t's i-th query is the same in
/// every phase of a run.
class QueryStream {
 public:
  QueryStream(const Spec& spec, const ShortSetup& s, uint64_t seed, int t)
      : spec_(spec), s_(s), rng_(seed * 0x9E3779B97F4A7C15ULL + 17 + t) {}

  query::Query Next(ShortKind* kind) {
    query::Query q;
    q.relation = s_.main;
    const size_t obj = rng_.Uniform(s_.keys.size());
    q.object_key = s_.keys[obj];
    const bool read = rng_.Bernoulli(spec_.read_share);
    *kind = read ? kRead : kUpdate;
    q.kind = read ? query::AccessKind::kRead : query::AccessKind::kUpdate;
    if (spec_.deep) {
      // Reads take the whole object; updates one level-2 subtree.
      if (!read) {
        q.path = {nf2::PathStep::At("children", static_cast<int64_t>(rng_.Uniform(4))),
                  nf2::PathStep::At("children", static_cast<int64_t>(rng_.Uniform(4)))};
      }
    } else if (read) {
      q.path = {nf2::PathStep::Field("robots")};
    } else {
      // Robots are numbered globally, 4 per cell: cell i owns r(4i+1..4i+4).
      const uint64_t robot = obj * 4 + rng_.Uniform(4) + 1;
      q.path = {nf2::PathStep::Elem("robots", "r" + std::to_string(robot))};
    }
    return q;
  }

 private:
  const Spec& spec_;
  const ShortSetup& s_;
  codlock::Rng rng_;
};

bool SameOutput(const query::QueryResult& a, const query::QueryResult& b) {
  return a.objects_visited == b.objects_visited &&
         a.target_locks == b.target_locks && a.values_read == b.values_read &&
         a.values_written == b.values_written;
}

std::unique_ptr<ShortSetup> Setup(const Spec& spec, uint64_t seed) {
  auto s = std::make_unique<ShortSetup>();
  if (spec.deep) {
    sim::SyntheticParams p;
    p.depth = 4;
    p.fanout = 4;
    p.refs_per_leaf = 1;
    p.num_objects = 256;
    p.num_shared = 64;
    p.seed = seed;
    sim::SyntheticFixture f = sim::BuildSynthetic(p);
    s->catalog = std::move(f.catalog);
    s->store = std::move(f.store);
    s->main = f.main_relation;
    s->shared = f.shared_relation;
  } else {
    sim::CellsParams p;
    p.num_cells = 16;
    p.c_objects_per_cell = 4;
    p.robots_per_cell = 4;
    p.num_effectors = 32;
    p.effectors_per_robot = 2;
    p.seed = seed;
    sim::CellsFixture f = sim::BuildCellsEffectors(p);
    s->catalog = std::move(f.catalog);
    s->store = std::move(f.store);
    s->main = f.cells;
    s->shared = f.effectors;
  }
  if (spec.deep) {
    for (nf2::ObjectId id : s->store->ObjectsOf(s->main)) {
      s->keys.push_back((*s->store->Get(s->main, id))->key);
    }
  } else {
    // Index i is cell c(i+1), so the robot numbering below holds.
    for (int c = 1; c <= 16; ++c) s->keys.push_back("c" + std::to_string(c));
  }
  s->server = std::make_unique<ws::Server>(s->catalog.get(), s->store.get());
  Grant(*s, s->server->authorization());
  // Probe each query kind once: every object has the same shape, so every
  // later result of that kind must match.
  for (int k = 0; k < 2; ++k) {
    QueryStream stream(spec, *s, seed, 0);
    ShortKind kind = kRead;
    query::Query q = stream.Next(&kind);
    while (kind != k) q = stream.Next(&kind);
    Result<query::QueryResult> r = s->server->RunShortTxn(kUser, q);
    if (r.ok()) s->expected[k] = *r;
  }
  return s;
}

/// One client's log of a closed-loop phase (its own cache lines).
struct alignas(64) ClientLog {
  std::vector<double> op_us;
  std::vector<uint64_t> end_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bad_output = 0;
  double target_locks = 0;
  double values_read = 0;
};

using TxnFn = std::function<Result<query::QueryResult>(const query::Query&)>;

/// Runs the closed loop on kClients threads for \p seconds, or until each
/// client has run \p max_txns transactions.  Thread t replays its seeded
/// stream; \p traces (when given) receive the spans, \p start_ns the
/// start time.
std::vector<ClientLog> Loop(const Spec& spec, const ShortSetup& s, uint64_t seed,
                            double seconds, const TxnFn& run,
                            std::vector<TraceLog>* traces,
                            uint64_t* start_ns = nullptr,
                            uint64_t max_txns = UINT64_MAX) {
  std::vector<ClientLog> logs(kClients);
  const uint64_t started = RunClients([&](int t) {
    ClientLog& log = logs[static_cast<size_t>(t)];
    ScopedTraceLog scoped(traces ? &(*traces)[static_cast<size_t>(t)] : nullptr);
    QueryStream stream(spec, s, seed, t);
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    // Operation ids stay unique across the slices of a traced run.
    uint64_t op_id = (static_cast<uint64_t>(t) << 40) +
                     (traces ? (*traces)[static_cast<size_t>(t)].ops.size() : 0);
    for (uint64_t end = 0; end < deadline && log.attempted < max_txns;) {
      ShortKind kind = kRead;
      const query::Query q = stream.Next(&kind);
      const uint64_t begin = NowNs();
      Result<query::QueryResult> r = Status::OK();
      {
        BeginOp(kind, ++op_id);
        ScopedSpan span(SpanKind::kOp);
        r = run(q);
      }
      end = NowNs();
      ++log.attempted;
      if (!r.ok()) {
        ++log.failed;
      } else if (!SameOutput(*r, s.expected[kind])) {
        ++log.failed;
        ++log.bad_output;
      } else {
        log.op_us.push_back(static_cast<double>(end - begin) / 1e3);
        log.end_ns.push_back(end);
        log.target_locks += static_cast<double>(r->target_locks);
        log.values_read += static_cast<double>(r->values_read);
      }
    }
  });
  if (start_ns != nullptr) *start_ns = started;
  return logs;
}

struct Merged {
  std::vector<double> op_us;
  std::vector<uint64_t> end_ns;
  uint64_t attempted = 0, failed = 0, bad_output = 0;
  double target_locks = 0, values_read = 0;
};

void Append(Merged& m, const std::vector<ClientLog>& logs) {
  for (const ClientLog& l : logs) {
    m.op_us.insert(m.op_us.end(), l.op_us.begin(), l.op_us.end());
    m.end_ns.insert(m.end_ns.end(), l.end_ns.begin(), l.end_ns.end());
    m.attempted += l.attempted;
    m.failed += l.failed;
    m.bad_output += l.bad_output;
    m.target_locks += l.target_locks;
    m.values_read += l.values_read;
  }
}

/// Output checks after a phase against \p server: nothing left locked, no
/// live transaction, every abort accounted for by a retry or a failure.
void CheckServerQuiescent(Report& r, ws::Server& server, const Merged& m,
                          const char* phase) {
  const std::string p = phase;
  if (size_t n = server.lock_manager().NumEntries(); n != 0) {
    r.Violation(p + ": " + std::to_string(n) + " lock-table entries left");
  }
  if (size_t n = server.txn_manager().ActiveCount(); n != 0) {
    r.Violation(p + ": " + std::to_string(n) + " transactions still active");
  }
  const codlock::LockStats& st = server.lock_manager().stats();
  const uint64_t aborts = st.aborts_timeout.value() + st.aborts_deadlock.value() +
                          st.aborts_shed.value();
  const uint64_t failed_txns = m.failed - m.bad_output;
  if (aborts != st.retries.value() + failed_txns) {
    r.Violation(p + ": " + std::to_string(aborts) + " aborts but " +
                std::to_string(st.retries.value()) + " retries and " +
                std::to_string(failed_txns) + " failed transactions");
  }
  if (m.bad_output != 0) {
    r.Violation(p + ": " + std::to_string(m.bad_output) +
                " transactions returned an unexpected result");
  }
}

Report RunShort(const Options& opt, const Spec& spec) {
  Report rep;
  const double warmup = std::min(1.0, 0.1 * opt.seconds);

  // Set-up: data, server (lock graph, statistics) and the output probe.
  std::vector<double> setup_s;
  std::unique_ptr<ShortSetup> s;
  while (MoreSetups(opt.trace, setup_s)) {
    s.reset();
    const uint64_t t0 = NowNs();
    s = Setup(spec, opt.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ws::Server& server = *s->server;
  const TxnFn via_server = [&](const query::Query& q) {
    return server.RunShortTxn(kUser, q);
  };

  Loop(spec, *s, opt.seed, kWarmupCapS, via_server, nullptr, nullptr, spec.warmup_txns);
  const double peak_rss_mb = PeakRssMb();
  server.lock_manager().stats().Reset();

  // The traced run interleaves the ladder's rungs in rounds, so that
  // every rung sees the same machine: the server called directly (this
  // workload's entry point, untraced), the decomposed stack untraced, and
  // the decomposed stack traced.
  std::unique_ptr<DecomposedStack> stack;
  TxnFn via_stack;
  if (opt.trace) {
    stack = std::make_unique<DecomposedStack>(
        s->catalog.get(), s->store.get(),
        [&](authz::AuthorizationManager& a) { Grant(*s, a); }, "",
        kShortCaptureEvery);
    via_stack = [&](const query::Query& q) { return stack->ShortTxn(kUser, q); };
    Loop(spec, *s, opt.seed, warmup, via_stack, nullptr);
  }
  const int rounds = opt.trace ? kTraceRounds : 1;
  const double slice = opt.seconds / rounds;
  Merged e2e, rung3u, rung3t;
  std::vector<TraceLog> traces(kClients);
  uint64_t e2e_start_ns = 0;
  const TickSample ticks0 = ReadTicks();
  double e2e_cpu_s = 0;
  for (int round = 0; round < rounds; ++round) {
    const double cpu0 = ProcessCpuSeconds();
    Append(e2e, Loop(spec, *s, opt.seed, opt.trace ? 0.45 * slice : slice, via_server,
                     nullptr, &e2e_start_ns));
    e2e_cpu_s += ProcessCpuSeconds() - cpu0;
    if (!opt.trace) break;
    Append(rung3u, Loop(spec, *s, opt.seed, 0.35 * slice, via_stack, nullptr));
    Append(rung3t, Loop(spec, *s, opt.seed, 0.1 * slice, via_stack, &traces));
  }
  CheckServerQuiescent(rep, server, e2e, "server");
  rep.attempted = e2e.attempted;
  rep.failed = e2e.failed;
  const double commits = static_cast<double>(e2e.op_us.size());
  const double e2e_p50 = Quantile(e2e.op_us, 0.5);
  rep.Add("txn_us_p50", e2e_p50, "us");
  rep.Add("txn_us_p99", Quantile(e2e.op_us, 0.99), "us");
  rep.AddRatio("error_rate", static_cast<double>(e2e.failed),
               static_cast<double>(e2e.attempted));
  rep.Add("op_us_p99", Quantile(e2e.op_us, 0.99), "us");
  rep.Add("cpu_us_per_op", commits > 0 ? e2e_cpu_s * 1e6 / commits : 0, "us");

  if (!opt.trace) {
    AddEndToEnd(rep, setup_s, peak_rss_mb, e2e_start_ns, opt.seconds, e2e.end_ns,
                e2e.op_us, StealShare(ticks0, ReadTicks()));
    return rep;
  }

  // --- traced run: the ladder ---------------------------------------------
  AddLockStatsMetrics(rep, server.lock_manager().stats(), commits);
  rep.Add("query.planner.target_locks_per_query",
          commits > 0 ? e2e.target_locks / commits : 0, "count");
  rep.Add("query.executor.values_read_per_txn",
          commits > 0 ? e2e.values_read / commits : 0, "count");
  if (rung3u.failed + rung3t.failed != 0) {
    rep.Violation("decomposed stack: " +
                  std::to_string(rung3u.failed + rung3t.failed) +
                  " transactions failed");
  }

  // Rung 4: the captured chains straight into the lock manager.
  RunClients([&](int t) {
    ReplayChains(stack->lock_manager(), traces[static_cast<size_t>(t)],
                 (static_cast<codlock::lock::TxnId>(t) + 1) << 44);
  });
  uint64_t replay_failures = 0;
  std::vector<double> acquire_us;
  for (const TraceLog& l : traces) {
    replay_failures += l.replay_failures;
    acquire_us.insert(acquire_us.end(), l.acquire_path_us.begin(),
                      l.acquire_path_us.end());
  }
  if (stack->lock_manager().NumEntries() != 0) {
    rep.Violation("replay left lock-table entries behind");
  }

  const SelfTimes st = ComputeSelfTimes(traces, -1);
  const LayerMedians m = MediansOf(st);
  const double rung3u_p50 = Quantile(rung3u.op_us, 0.5);
  const double rung3t_p50 = Median(st.total) / 1e3;
  // The server's own share: what RunShortTxn costs beyond the decomposed
  // stack, plus the retry loop the stack repeats outside every span.
  const double server_self = e2e_p50 - rung3u_p50 + m.glue;
  rep.Add("ws.server.txn_self_us", server_self, "us");
  rep.Add("query.planner.plan_us_p50", Median(st.plan_us), "us");
  rep.Add("query.executor.self_us_p50", m.executor, "us");
  rep.Add("proto.co_protocol.lock_us_p50", Median(st.proto_call_us), "us");
  rep.Add("proto.co_protocol.self_us_p50", m.protocol, "us");
  rep.Add("lock.lock_manager.acquire_path_us_p50", Median(acquire_us), "us");
  rep.Add("lock.lock_manager.self_us_p50", m.lock_manager, "us");
  rep.Add("txn.txn_manager.begin_us_p50", Median(st.begin_us), "us");
  rep.Add("txn.txn_manager.commit_us_p50", Median(st.commit_us), "us");
  rep.Add("txn.txn_manager.self_us_p50", m.txn, "us");
  rep.Add("trace.replay_failures", static_cast<double>(replay_failures), "count");
  rep.AddRatio("trace.overhead_ratio", rung3t_p50 - rung3u_p50, rung3u_p50, "us");
  AddLadderCheck(rep, "trace.txn", server_self + m.Sum(), e2e_p50);
  WriteSpans(traces, opt.workdir + "/spans-" + opt.workload + ".tsv");
  return rep;
}

}  // namespace

Report RunShortSharedUpdate(const Options& opt) {
  return RunShort(opt, Spec{/*deep=*/false, /*read_share=*/0.5, /*warmup_txns=*/30000});
}

Report RunShortDeepRead(const Options& opt) {
  return RunShort(opt, Spec{/*deep=*/true, /*read_share=*/0.9, /*warmup_txns=*/4000});
}

}  // namespace perfbench
