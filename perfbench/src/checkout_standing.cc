// checkout_standing: workstation sessions through the public entry points
// (ws::Handle -> shm ring -> ws::Host workers -> ws::Server), the only
// workload that exercises the ring, the host, leases and the long-lock
// store.
//
// Fig. 1 cells/effectors, 320 cells.  256 idle workstations hold
// exclusive check-outs for the whole run (~2.3k long locks), so every
// save of the long-lock store snapshots a realistic table.  Each client
// owns a handle on a real shm segment and a disjoint pool of the other 64
// cells; a session is CheckOut(kExclusive, c_objects), 8 x Renew,
// CheckIn, and it is this workload's unit of work (its "op").  The store
// is file-backed with the code's own flush policy (stream flush + rename,
// no fsync); on ext4 the rename over the live file starts the new file's
// writeback, so the saves do reach the disk.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/fixtures.h"
#include "util/rng.h"
#include "workloads.h"
#include "ws/handle.h"
#include "ws/host.h"

namespace perfbench {

namespace {

using codlock::Result;
using codlock::Status;
namespace authz = codlock::authz;
namespace lock = codlock::lock;
namespace nf2 = codlock::nf2;
namespace query = codlock::query;
namespace sim = codlock::sim;
namespace txn = codlock::txn;
namespace ws = codlock::ws;

constexpr int kCells = 320;
constexpr int kStanding = 256;
constexpr int kRenewsPerSession = 8;
constexpr int kHostWorkers = 2;
/// Warm-up sessions per client (see kWarmupCapS).
constexpr uint64_t kWarmupSessions = 300;
constexpr authz::UserId kFirstWorkstationUser = 100;

enum OpKind { kCheckOut = 0, kRenew = 1, kCheckIn = 2, kOpKinds = 3 };
const char* const kOpNames[kOpKinds] = {"checkout", "renew", "checkin"};

bool RecordLess(const lock::LongLockRecord& a, const lock::LongLockRecord& b) {
  return std::tie(a.txn, a.resource.node, a.resource.instance, a.mode) <
         std::tie(b.txn, b.resource.node, b.resource.instance, b.mode);
}
bool RecordEq(const lock::LongLockRecord& a, const lock::LongLockRecord& b) {
  return a.txn == b.txn && a.resource == b.resource && a.mode == b.mode;
}
std::vector<lock::LongLockRecord> Sorted(std::vector<lock::LongLockRecord> v) {
  std::sort(v.begin(), v.end(), RecordLess);
  return v;
}
bool SameSet(const std::vector<lock::LongLockRecord>& a,
             const std::vector<lock::LongLockRecord>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), RecordEq);
}

void Grant(const sim::CellsFixture& f, authz::AuthorizationManager& a,
           authz::UserId user) {
  a.Grant(user, f.cells, authz::Right::kRead);
  a.Grant(user, f.cells, authz::Right::kModify);
  a.Grant(user, f.effectors, authz::Right::kRead);
}

query::Query CellQuery(const sim::CellsFixture& f, const std::string& key) {
  query::Query q;
  q.name = "checkout";
  q.relation = f.cells;
  q.object_key = key;
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

/// Data, host, standing check-outs and the client cell pools.  Members
/// are destroyed in reverse order: the host (stops its workers, unlinks
/// the segment) before the data it points into.
struct StandingSetup {
  sim::CellsFixture f;
  std::unique_ptr<ws::Host> host;
  std::vector<std::string> standing_keys;
  std::vector<std::string> pool[kClients];
  std::vector<lock::LongLockRecord> standing;  ///< sorted
  std::string store_path;
};

std::unique_ptr<StandingSetup> Setup(const Options& opt, int index, Report& rep) {
  auto s = std::make_unique<StandingSetup>();
  sim::CellsParams p;
  p.num_cells = kCells;
  p.c_objects_per_cell = 4;
  p.robots_per_cell = 2;
  p.num_effectors = 8;
  p.seed = opt.seed;
  s->f = sim::BuildCellsEffectors(p);

  const std::string tag =
      std::to_string(static_cast<long>(getpid())) + "-" + std::to_string(index);
  s->store_path = opt.workdir + "/longlocks-" + tag + ".store";
  std::filesystem::remove(s->store_path);
  ws::HostOptions ho;
  ho.ring.backend = ws::RingBackend::kShmCreate;
  ho.ring.shm_name = "/codlock-perfbench-" + tag;
  ho.server.storage_path = s->store_path;
  ho.server.lease.duration_ms = 1ULL << 40;  // nothing expires mid-run
  s->host = std::make_unique<ws::Host>(s->f.catalog.get(), s->f.store.get(), ho);
  if (!s->host->ring_status().ok()) {
    rep.Violation("shm ring: " + s->host->ring_status().ToString());
    return nullptr;
  }
  for (authz::UserId u = 1; u <= kClients; ++u) {
    Grant(s->f, s->host->server().authorization(), u);
  }
  for (int i = 0; i < kStanding; ++i) {
    Grant(s->f, s->host->server().authorization(), kFirstWorkstationUser + i);
  }
  s->host->StartWorkers(kHostWorkers);

  std::vector<std::string> keys;
  for (int c = 1; c <= kCells; ++c) keys.push_back("c" + std::to_string(c));
  codlock::Rng rng(opt.seed ^ 0x5EED5EEDULL);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  // The standing workstations are idle for the whole run, so they take
  // their check-outs straight from the server.
  for (int i = 0; i < kStanding; ++i) {
    Result<ws::CheckOutTicket> t = s->host->server().CheckOut(
        kFirstWorkstationUser + i, CellQuery(s->f, keys[static_cast<size_t>(i)]),
        ws::CheckOutMode::kExclusive);
    if (!t.ok()) {
      rep.Violation("standing check-out: " + t.status().ToString());
      return nullptr;
    }
    s->standing_keys.push_back(keys[static_cast<size_t>(i)]);
  }
  for (size_t i = kStanding; i < keys.size(); ++i) {
    s->pool[i % kClients].push_back(keys[i]);
  }
  s->standing = Sorted(s->host->server().lock_manager().SnapshotLongLocks());
  return s;
}

// --- the three entry points a session can go through -----------------------

/// Rung 1: one handle per client over the shm ring, host workers running.
struct HandleApi {
  using Ticket = ws::CheckOutTicket;
  std::vector<std::unique_ptr<ws::Handle>> clients;

  explicit HandleApi(ws::Host* host) {
    for (int t = 0; t < kClients; ++t) {
      ws::HandleOptions o;
      o.real_backoff = true;
      o.seed = static_cast<uint64_t>(t) + 1;
      clients.push_back(std::make_unique<ws::Handle>(host, o));
    }
  }
  Status Attach() {
    for (auto& c : clients) CODLOCK_RETURN_IF_ERROR(c->Attach());
    return Status::OK();
  }
  Result<Ticket> CheckOut(int t, authz::UserId u, const query::Query& q) {
    return clients[static_cast<size_t>(t)]->CheckOut(u, q, ws::CheckOutMode::kExclusive);
  }
  Status Renew(int t, const Ticket& k) {
    return clients[static_cast<size_t>(t)]->Renew(k);
  }
  Status CheckIn(int t, const Ticket& k, const query::Query&) {
    return clients[static_cast<size_t>(t)]->CheckIn(k);
  }
};

/// Rung 2: the same server called directly.
struct ServerApi {
  using Ticket = ws::CheckOutTicket;
  /// What the check-outs returned, one cache line per client.
  struct alignas(64) Returned {
    double target_locks = 0;
    double values_read = 0;
  };
  ws::Server& server;
  Returned returned[kClients] = {};

  Result<Ticket> CheckOut(int t, authz::UserId u, const query::Query& q) {
    Result<Ticket> k = server.CheckOut(u, q, ws::CheckOutMode::kExclusive);
    if (k.ok()) {
      returned[t].target_locks += static_cast<double>(k->data.target_locks);
      returned[t].values_read += static_cast<double>(k->data.values_read);
    }
    return k;
  }
  Status Renew(int, const Ticket& k) { return server.RenewLease(k); }
  Status CheckIn(int, const Ticket& k, const query::Query&) {
    return server.CheckIn(k);
  }
};

/// Rung 3: the decomposed stack.  A renewal has no work below the server.
struct StackApi {
  using Ticket = txn::Transaction*;
  DecomposedStack& stack;

  Result<Ticket> CheckOut(int, authz::UserId u, const query::Query& q) {
    return stack.CheckOut(u, q);
  }
  Status Renew(int, const Ticket&) { return Status::OK(); }
  Status CheckIn(int, const Ticket& k, const query::Query& q) {
    return stack.CheckIn(k, q);
  }
};

/// One client's log of a phase (its own cache lines).
struct alignas(64) SessionLog {
  std::vector<double> us[kOpKinds];
  /// Whole sessions whose calls all succeeded: latency and end time.
  std::vector<double> session_us;
  std::vector<uint64_t> session_end_ns;
  uint64_t sessions = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Merged {
  std::vector<double> us[kOpKinds];
  std::vector<double> session_us;
  std::vector<uint64_t> session_end_ns;
  uint64_t sessions = 0, attempted = 0, failed = 0;
  double P50(int k) const { return Quantile(us[k], 0.5); }
};

void Append(Merged& m, const std::vector<SessionLog>& logs) {
  for (const SessionLog& l : logs) {
    for (int k = 0; k < kOpKinds; ++k) {
      m.us[k].insert(m.us[k].end(), l.us[k].begin(), l.us[k].end());
    }
    m.session_us.insert(m.session_us.end(), l.session_us.begin(), l.session_us.end());
    m.session_end_ns.insert(m.session_end_ns.end(), l.session_end_ns.begin(),
                            l.session_end_ns.end());
    m.sessions += l.sessions;
    m.attempted += l.attempted;
    m.failed += l.failed;
  }
}

/// Closed-loop sessions on kClients threads for \p seconds, or until each
/// client has done \p max_sessions; client t draws cells from its own pool
/// with its own seeded stream.  \p start_ns receives the start time.
template <class Api>
std::vector<SessionLog> Sessions(const StandingSetup& s, uint64_t seed,
                                 double seconds, Api& api,
                                 std::vector<TraceLog>* traces,
                                 uint64_t* start_ns = nullptr,
                                 uint64_t max_sessions = UINT64_MAX) {
  std::vector<SessionLog> logs(kClients);
  const uint64_t started = RunClients([&](int t) {
    SessionLog& log = logs[static_cast<size_t>(t)];
    ScopedTraceLog scoped(traces ? &(*traces)[static_cast<size_t>(t)] : nullptr);
    codlock::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 31 + static_cast<uint64_t>(t));
    const std::vector<std::string>& pool = s.pool[t];
    const authz::UserId user = static_cast<authz::UserId>(t) + 1;
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    // Operation ids stay unique across the slices of a traced run.
    uint64_t op_id = (static_cast<uint64_t>(t) << 40) +
                     (traces ? (*traces)[static_cast<size_t>(t)].ops.size() : 0);
    // Times one call; false when it failed.
    auto timed = [&](int kind, auto&& call) {
      BeginOp(kind, ++op_id);
      const uint64_t t0 = NowNs();
      bool ok = false;
      {
        ScopedSpan span(SpanKind::kOp);
        ok = call();
      }
      const uint64_t t1 = NowNs();
      const double us = static_cast<double>(t1 - t0) / 1e3;
      ++log.attempted;
      if (!ok) {
        ++log.failed;
        return false;
      }
      log.us[kind].push_back(us);
      return true;
    };
    while (NowNs() < deadline && log.sessions < max_sessions) {
      const query::Query q = CellQuery(s.f, pool[rng.Uniform(pool.size())]);
      const uint64_t session_t0 = NowNs();
      typename Api::Ticket ticket{};
      if (!timed(kCheckOut, [&] {
            Result<typename Api::Ticket> k = api.CheckOut(t, user, q);
            if (k.ok()) ticket = *k;
            return k.ok();
          })) {
        continue;
      }
      bool ok = true;
      for (int i = 0; i < kRenewsPerSession; ++i) {
        ok &= timed(kRenew, [&] { return api.Renew(t, ticket).ok(); });
      }
      ok &= timed(kCheckIn, [&] { return api.CheckIn(t, ticket, q).ok(); });
      ++log.sessions;
      if (ok) {
        const uint64_t end = NowNs();
        log.session_us.push_back(static_cast<double>(end - session_t0) / 1e3);
        log.session_end_ns.push_back(end);
      }
    }
  });
  if (start_ns != nullptr) *start_ns = started;
  return logs;
}

/// Live long-lock set and a fresh load of the store file must both equal
/// the standing set (the durability check).
void CheckStanding(Report& r, StandingSetup& s, const std::string& phase) {
  ws::Server& server = s.host->server();
  if (!SameSet(Sorted(server.lock_manager().SnapshotLongLocks()), s.standing)) {
    r.Violation(phase + ": live long-lock set differs from the standing set");
  }
  lock::LongLockStore fresh;
  Status loaded = fresh.LoadFromFile(s.store_path);
  if (!loaded.ok()) {
    r.Violation(phase + ": store file does not load: " + loaded.ToString());
  } else if (!SameSet(Sorted(fresh.records()), s.standing)) {
    r.Violation(phase + ": store file does not restore the standing set");
  } else if (fresh.generation() != server.stable_storage().generation()) {
    r.Violation(phase + ": store file is not at the server's generation");
  }
}

/// Every published frame was consumed, completed and taken; nothing torn
/// or reclaimed.
void CheckLedger(Report& r, ws::ShmRing& ring, const std::string& phase) {
  const ws::ShmRing::Counters c = ring.counters();
  if (c.published != c.consumed || c.consumed != c.completed ||
      c.completed != c.taken || c.salvaged != 0 || c.Reclaimed() != 0) {
    r.Violation(phase + ": ring ledger does not balance (published " +
                std::to_string(c.published) + ", consumed " +
                std::to_string(c.consumed) + ", completed " +
                std::to_string(c.completed) + ", taken " +
                std::to_string(c.taken) + ", salvaged " +
                std::to_string(c.salvaged) + ", reclaimed " +
                std::to_string(c.Reclaimed()) + ")");
  }
}

/// Median latency of Ping over \p seconds on one handle.
double PingP50(ws::Handle& h, double seconds, Report& r) {
  std::vector<double> us;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const uint64_t t0 = NowNs();
    if (!h.Ping().ok()) {
      r.Violation("ping failed");
      break;
    }
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(us);
}

}  // namespace

Report RunCheckoutStanding(const Options& opt) {
  Report rep;
  const double warmup = std::min(1.0, 0.1 * opt.seconds);

  std::vector<double> setup_s;
  std::unique_ptr<StandingSetup> s;
  for (int i = 0; MoreSetups(opt.trace, setup_s); ++i) {
    s.reset();
    const uint64_t t0 = NowNs();
    s = Setup(opt, i, rep);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s) return rep;
  }
  ws::Host& host = *s->host;
  ws::Server& server = host.server();

  HandleApi handles(&host);
  if (Status a = handles.Attach(); !a.ok()) {
    rep.Violation("attach: " + a.ToString());
    return rep;
  }
  Sessions(*s, opt.seed, kWarmupCapS, handles, nullptr, nullptr, kWarmupSessions);
  const double peak_rss_mb = PeakRssMb();
  server.lock_manager().stats().Reset();

  // The traced run interleaves the ladder's rungs in rounds, so that
  // every rung sees the same machine: the handles (rung 1, untraced), the
  // server called directly (rung 2), the decomposed stack untraced and
  // traced (rung 3).  Rung 3 has its own standing set, built untimed.
  ServerApi direct{server};
  std::unique_ptr<DecomposedStack> stack;
  std::unique_ptr<StackApi> decomposed;
  if (opt.trace) {
    stack = std::make_unique<DecomposedStack>(
        s->f.catalog.get(), s->f.store.get(),
        [&](authz::AuthorizationManager& a) {
          for (authz::UserId u = 1; u <= kClients; ++u) Grant(s->f, a, u);
          for (int i = 0; i < kStanding; ++i) Grant(s->f, a, kFirstWorkstationUser + i);
        },
        opt.workdir + "/rung3.store", /*capture_every=*/1);
    for (int i = 0; i < kStanding; ++i) {
      Result<txn::Transaction*> t = stack->CheckOut(
          kFirstWorkstationUser + i,
          CellQuery(s->f, s->standing_keys[static_cast<size_t>(i)]));
      if (!t.ok()) rep.Violation("decomposed standing check-out: " + t.status().ToString());
    }
    decomposed = std::make_unique<StackApi>(StackApi{*stack});
    Sessions(*s, opt.seed, warmup, direct, nullptr);
    Sessions(*s, opt.seed, warmup, *decomposed, nullptr);
    for (ServerApi::Returned& r : direct.returned) r = {};
  }
  const int rounds = opt.trace ? kTraceRounds : 1;
  const double slice = opt.seconds / rounds;
  Merged e2e, rung2, rung3u, rung3t;
  uint64_t e2e_wchar = 0, e2e_saves = 0, traced_wchar = 0;
  double e2e_cpu_s = 0;
  std::vector<TraceLog> traces(kClients);
  uint64_t e2e_start_ns = 0;
  const TickSample ticks0 = ReadTicks();
  for (int round = 0; round < rounds; ++round) {
    const uint64_t generation0 = server.stable_storage().generation();
    const uint64_t wchar0 = ReadWchar(/*this_thread_only=*/false);
    const double cpu0 = ProcessCpuSeconds();
    Append(e2e, Sessions(*s, opt.seed, opt.trace ? 0.35 * slice : slice, handles,
                         nullptr, &e2e_start_ns));
    e2e_cpu_s += ProcessCpuSeconds() - cpu0;
    e2e_wchar += ReadWchar(/*this_thread_only=*/false) - wchar0;
    e2e_saves += server.stable_storage().generation() - generation0;
    if (!opt.trace) break;
    Append(rung2, Sessions(*s, opt.seed, 0.25 * slice, direct, nullptr));
    Append(rung3u, Sessions(*s, opt.seed, 0.15 * slice, *decomposed, nullptr));
    const uint64_t traced_wchar0 = ReadWchar(/*this_thread_only=*/false);
    Append(rung3t, Sessions(*s, opt.seed, 0.1 * slice, *decomposed, &traces));
    traced_wchar += ReadWchar(/*this_thread_only=*/false) - traced_wchar0;
  }
  const double sessions = static_cast<double>(e2e.sessions);
  rep.attempted = e2e.attempted;
  rep.failed = e2e.failed;
  CheckStanding(rep, *s, "sessions");
  CheckLedger(rep, host.ring(), "sessions");

  for (int k = 0; k < kOpKinds; ++k) {
    rep.Add(std::string(kOpNames[k]) + "_us_p50", e2e.P50(k), "us");
    rep.Add(std::string(kOpNames[k]) + "_us_p99", Quantile(e2e.us[k], 0.99), "us");
  }
  rep.Add("write_bytes_per_session",
          sessions > 0 ? static_cast<double>(e2e_wchar) / sessions : 0, "B");
  rep.AddRatio("error_rate", static_cast<double>(e2e.failed),
               static_cast<double>(e2e.attempted));
  rep.Add("op_us_p99", Quantile(e2e.session_us, 0.99), "us");
  rep.Add("cpu_us_per_op",
          e2e.session_us.empty()
              ? 0
              : e2e_cpu_s * 1e6 / static_cast<double>(e2e.session_us.size()),
          "us");
  if (!opt.trace) {
    AddEndToEnd(rep, setup_s, peak_rss_mb, e2e_start_ns, opt.seconds,
                e2e.session_end_ns, e2e.session_us, StealShare(ticks0, ReadTicks()));
    return rep;
  }

  // --- traced run: the ladder ---------------------------------------------
  AddLockStatsMetrics(rep, server.lock_manager().stats(), sessions);
  rep.Add("lock.long_lock_store.saves_per_session",
          sessions > 0 ? static_cast<double>(e2e_saves) / sessions : 0, "count");
  uint64_t sheds = 0, retries = 0, fenced = 0;
  for (const auto& h : handles.clients) {
    sheds += h->stats().sheds_seen;
    retries += h->stats().retries;
    fenced += h->stats().fenced;
  }
  rep.Add("ws.handle.sheds", static_cast<double>(sheds), "count");
  rep.Add("ws.handle.retries", static_cast<double>(retries), "count");
  rep.Add("ws.handle.fenced", static_cast<double>(fenced), "count");
  double target_locks = 0, values_read = 0;
  for (const ServerApi::Returned& r : direct.returned) {
    target_locks += r.target_locks;
    values_read += r.values_read;
  }
  const double checkouts2 = static_cast<double>(rung2.us[kCheckOut].size());
  rep.Add("query.planner.target_locks_per_query",
          checkouts2 > 0 ? target_locks / checkouts2 : 0, "count");
  rep.Add("query.executor.values_read_per_txn",
          checkouts2 > 0 ? values_read / checkouts2 : 0, "count");
  if (rung3u.failed + rung3t.failed != 0) {
    rep.Violation("decomposed stack: " + std::to_string(rung3u.failed + rung3t.failed) +
                  " calls failed");
  }

  // The ring alone: an awaited ping (worker wake included), then the
  // steppable pump with the workers stopped.
  rep.Add("ws.ring.ping_us_p50", PingP50(*handles.clients[0], 0.05 * opt.seconds, rep),
          "us");
  host.StopWorkers();
  rep.Add("ws.ring.pump_ping_us_p50",
          PingP50(*handles.clients[0], 0.05 * opt.seconds, rep), "us");
  CheckLedger(rep, host.ring(), "pings");
  const ws::ShmRing::Counters rc = host.ring().counters();
  rep.Add("ws.ring.published", static_cast<double>(rc.published), "count");
  rep.Add("ws.ring.salvaged", static_cast<double>(rc.salvaged), "count");
  rep.Add("ws.ring.reclaimed", static_cast<double>(rc.Reclaimed()), "count");

  // Rung 4: the captured chains straight into the lock manager.
  RunClients([&](int t) {
    ReplayChains(stack->lock_manager(), traces[static_cast<size_t>(t)],
                 (static_cast<lock::TxnId>(t) + 1) << 44);
  });
  uint64_t replay_failures = 0;
  std::vector<double> acquire_us, save_records;
  for (const TraceLog& l : traces) {
    replay_failures += l.replay_failures;
    acquire_us.insert(acquire_us.end(), l.acquire_path_us.begin(), l.acquire_path_us.end());
    save_records.insert(save_records.end(), l.save_records.begin(), l.save_records.end());
  }
  if (stack->lock_manager().SnapshotLongLocks().size() != s->standing.size()) {
    rep.Violation("decomposed stack: long-lock set differs from the standing set");
  }
  std::vector<double> snapshot_us;
  for (int i = 0; i < 100; ++i) {
    const uint64_t t0 = NowNs();
    const size_t n = stack->lock_manager().SnapshotLongLocks().size();
    snapshot_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (n == 0) rep.Violation("empty long-lock snapshot");
  }
  rep.Add("lock.lock_manager.snapshot_long_us_p50", Median(snapshot_us), "us");

  const SelfTimes all = ComputeSelfTimes(traces, -1);
  rep.Add("lock.long_lock_store.save_us_p50", Median(all.save_us), "us");
  rep.Add("lock.long_lock_store.save_us_p99", Quantile(all.save_us, 0.99), "us");
  rep.Add("lock.long_lock_store.records_per_save", Mean(save_records), "count");
  // Only the saves write during the traced slices (the host is idle).
  rep.Add("lock.long_lock_store.bytes_per_save",
          all.save_us.empty() ? 0
                              : static_cast<double>(traced_wchar) /
                                    static_cast<double>(all.save_us.size()),
          "B");
  rep.Add("query.planner.plan_us_p50", Median(all.plan_us), "us");
  rep.Add("proto.co_protocol.lock_us_p50", Median(all.proto_call_us), "us");
  rep.Add("lock.lock_manager.acquire_path_us_p50", Median(acquire_us), "us");
  rep.Add("txn.txn_manager.begin_us_p50", Median(all.begin_us), "us");
  rep.Add("txn.txn_manager.commit_us_p50", Median(all.commit_us), "us");
  rep.Add("trace.replay_failures", static_cast<double>(replay_failures), "count");

  // Per operation: transport = handle - server; server self = server -
  // untraced rung 3 (+ the time rung 3 spends outside its layer spans);
  // the rest from the traced rung 3 and the replay.
  for (int k = 0; k < kOpKinds; ++k) {
    const std::string op = kOpNames[k];
    const SelfTimes st = ComputeSelfTimes(traces, k);
    const LayerMedians m = MediansOf(st);
    const double transport = e2e.P50(k) - rung2.P50(k);
    const double server_self = rung2.P50(k) - rung3u.P50(k) + m.glue;
    rep.Add("ws.transport." + op + "_us", transport, "us");
    rep.Add("ws.server." + op + "_self_us", server_self, "us");
    if (k == kRenew) continue;
    AddLadderCheck(rep, "trace." + op, transport + server_self + m.Sum(),
                   e2e.P50(k));
    if (k == kCheckOut) {
      rep.Add("query.executor.self_us_p50", m.executor, "us");
      rep.Add("proto.co_protocol.self_us_p50", m.protocol, "us");
      rep.Add("lock.lock_manager.self_us_p50", m.lock_manager, "us");
      rep.Add("txn.txn_manager.self_us_p50", m.txn, "us");
      const double traced = Median(st.total) / 1e3;
      rep.AddRatio("trace.overhead_ratio", traced - rung3u.P50(k), rung3u.P50(k), "us");
    }
  }
  WriteSpans(traces, opt.workdir + "/spans-" + opt.workload + ".tsv");
  return rep;
}

}  // namespace perfbench
