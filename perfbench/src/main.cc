// codlock_perfbench: one workload, one run.
//
//   codlock_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --workdir <dir>
//
// Prints the comparability context, a table of every metric, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when an output check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Known {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of the traced run.  A workload that does not
/// exercise a layer reports it as 0.
const Known kLayerMetrics[] = {
    // The user-visible operation breakdown, from the untraced phase.
    {"op_us_p99", "us"},
    {"cpu_us_per_op", "us"},
    {"checkout_us_p50", "us"}, {"checkout_us_p99", "us"},
    {"checkin_us_p50", "us"}, {"checkin_us_p99", "us"},
    {"renew_us_p50", "us"}, {"renew_us_p99", "us"},
    {"write_bytes_per_session", "B"},
    {"txn_us_p50", "us"}, {"txn_us_p99", "us"},
    {"error_rate", "ratio"}, {"error_rate_base", "count"},
    // ws
    {"ws.handle.sheds", "count"}, {"ws.handle.retries", "count"},
    {"ws.handle.fenced", "count"},
    {"ws.ring.ping_us_p50", "us"}, {"ws.ring.pump_ping_us_p50", "us"},
    {"ws.ring.published", "count"}, {"ws.ring.salvaged", "count"},
    {"ws.ring.reclaimed", "count"},
    {"ws.transport.checkout_us", "us"}, {"ws.transport.renew_us", "us"},
    {"ws.transport.checkin_us", "us"},
    {"ws.server.checkout_self_us", "us"}, {"ws.server.renew_self_us", "us"},
    {"ws.server.checkin_self_us", "us"}, {"ws.server.txn_self_us", "us"},
    // lock.long_lock_store
    {"lock.long_lock_store.save_us_p50", "us"},
    {"lock.long_lock_store.save_us_p99", "us"},
    {"lock.long_lock_store.records_per_save", "count"},
    {"lock.long_lock_store.bytes_per_save", "B"},
    {"lock.long_lock_store.saves_per_session", "count"},
    // query
    {"query.planner.plan_us_p50", "us"},
    {"query.planner.target_locks_per_query", "count"},
    {"query.executor.self_us_p50", "us"},
    {"query.executor.values_read_per_txn", "count"},
    // proto
    {"proto.co_protocol.lock_us_p50", "us"},
    {"proto.co_protocol.self_us_p50", "us"},
    {"proto.co_protocol.upward_propagations_per_txn", "count"},
    {"proto.co_protocol.downward_propagations_per_txn", "count"},
    {"proto.co_protocol.parent_searches_per_txn", "count"},
    // lock.lock_manager
    {"lock.lock_manager.snapshot_long_us_p50", "us"},
    {"lock.lock_manager.lock_requests_per_txn", "count"},
    {"lock.lock_manager.acquire_path_us_p50", "us"},
    {"lock.lock_manager.self_us_p50", "us"},
    {"lock.lock_manager.fastpath_hit_ratio", "ratio"},
    {"lock.lock_manager.fastpath_hit_ratio_base", "count"},
    {"lock.lock_manager.cache_hit_ratio", "ratio"},
    {"lock.lock_manager.cache_hit_ratio_base", "count"},
    {"lock.lock_manager.waits_per_txn", "count"},
    {"lock.lock_manager.wait_us_p50", "us"},
    {"lock.lock_manager.wait_us_p99", "us"},
    {"lock.lock_manager.conflict_ratio", "ratio"},
    {"lock.lock_manager.conflict_ratio_base", "count"},
    {"lock.lock_manager.combine_drained_ratio", "ratio"},
    {"lock.lock_manager.combine_drained_ratio_base", "count"},
    {"lock.lock_manager.deadlocks", "count"},
    {"lock.lock_manager.timeouts", "count"},
    // txn
    {"txn.txn_manager.begin_us_p50", "us"},
    {"txn.txn_manager.commit_us_p50", "us"},
    {"txn.txn_manager.self_us_p50", "us"},
    {"txn.txn_manager.aborts_per_commit", "ratio"},
    {"txn.txn_manager.aborts_per_commit_base", "count"},
    {"txn.txn_manager.retries_per_commit", "ratio"},
    {"txn.txn_manager.retries_per_commit_base", "count"},
    // The ladder test and the tracer's own cost.
    {"trace.checkout.layer_sum_us", "us"}, {"trace.checkout.e2e_us", "us"},
    {"trace.checkout.sum_error_ratio", "ratio"},
    {"trace.checkin.layer_sum_us", "us"}, {"trace.checkin.e2e_us", "us"},
    {"trace.checkin.sum_error_ratio", "ratio"},
    {"trace.txn.layer_sum_us", "us"}, {"trace.txn.e2e_us", "us"},
    {"trace.txn.sum_error_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"}, {"trace.overhead_ratio_base", "us"},
    {"trace.replay_failures", "count"},
    // Comparability context.
    {"context.effective_parallelism", "ratio"},
    {"context.calibration_mops", "1/us"},
};

/// The end-to-end metrics of the untraced run.
const Known kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"op_us_p50", "us"},
    {"peak_rss_mb", "MiB"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::cerr << "usage: codlock_perfbench --workload "
               "<checkout_standing|short_shared_update|short_deep_read> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.workdir.empty() || opt.seconds <= 0) return Usage();

  const Context ctx = ProbeContext();
  std::cout << ContextJson(ctx) << "\n";

  Report rep;
  if (opt.workload == "checkout_standing") {
    rep = RunCheckoutStanding(opt);
  } else if (opt.workload == "short_shared_update") {
    rep = RunShortSharedUpdate(opt);
  } else if (opt.workload == "short_deep_read") {
    rep = RunShortDeepRead(opt);
  } else {
    return Usage();
  }

  // The reported set is fixed per mode: every known metric, zero where
  // the workload does not exercise it; an unknown name is a bug here.
  const Known* known = opt.trace ? kLayerMetrics : kEndToEnd;
  const size_t n_known = opt.trace ? std::size(kLayerMetrics) : std::size(kEndToEnd);
  if (opt.trace) {
    rep.Add("context.effective_parallelism", ctx.effective_parallelism, "ratio");
    rep.Add("context.calibration_mops", ctx.calibration_mops, "1/us");
  }
  std::set<std::string> names;
  for (const Metric& m : rep.metrics) names.insert(m.name);
  std::set<std::string> allowed;
  for (size_t i = 0; i < n_known; ++i) allowed.insert(known[i].name);
  if (opt.trace) {
    for (const std::string& name : names) {
      if (!allowed.count(name)) {
        std::cerr << "internal error: per-layer metric " << name
                  << " is not in the metric table\n";
        return 2;
      }
    }
  }
  for (size_t i = 0; i < n_known; ++i) {
    if (!names.count(known[i].name)) {
      if (!opt.trace && rep.correct) {
        std::cerr << "internal error: end-to-end metric " << known[i].name
                  << " was not measured\n";
        return 2;
      }
      rep.Add(known[i].name, 0, known[i].unit);
    }
  }

  for (const std::string& v : rep.violations) {
    std::cout << "CHECK FAILED: " << v << "\n";
  }
  std::ostringstream metrics;
  std::cout << "metric                                              value  unit\n";
  bool first = true;
  for (const Metric& m : rep.metrics) {
    std::printf("%-46s %14.4f  %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                allowed.count(m.name) ? "" : "  (table only)");
    if (!allowed.count(m.name)) continue;
    metrics << (first ? "" : ", ") << JsonString(m.name) << ": {\"value\": "
            << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  std::fflush(stdout);
  std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
