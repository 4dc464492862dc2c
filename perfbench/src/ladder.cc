#include <cmath>

#include "workloads.h"

namespace perfbench {

LayerMedians MediansOf(const SelfTimes& s) {
  LayerMedians m;
  m.planner = Median(s.planner) / 1e3;
  m.txn = Median(s.txn) / 1e3;
  m.executor = Median(s.executor) / 1e3;
  m.protocol = Median(s.protocol) / 1e3;
  m.lock_manager = Median(s.lock_manager) / 1e3;
  m.store = Median(s.store) / 1e3;
  m.glue = Median(s.glue) / 1e3;
  return m;
}

void AddLadderCheck(Report& r, const std::string& prefix, double layer_sum_us,
                    double e2e_us) {
  const double err = e2e_us > 0 ? std::fabs(layer_sum_us - e2e_us) / e2e_us : 1;
  r.Add(prefix + ".layer_sum_us", layer_sum_us, "us");
  r.Add(prefix + ".e2e_us", e2e_us, "us");
  r.Add(prefix + ".sum_error_ratio", err, "ratio");
  if (err > kLadderTolerance) {
    r.Violation(prefix + ": layer self times add up to " +
                std::to_string(layer_sum_us) + " us, untraced median is " +
                std::to_string(e2e_us) + " us");
  }
}

void AddEndToEnd(Report& r, const std::vector<double>& setup_s, double peak_rss_mb,
                 uint64_t start_ns, double seconds, const std::vector<uint64_t>& end_ns,
                 const std::vector<double>& us, double steal_ratio) {
  const WindowFigures w = BestWindows(start_ns, seconds, end_ns, us);
  r.Add("setup_s", BestShareMedian(setup_s, /*higher_is_better=*/false), "s");
  r.Add("throughput_ops_s", w.rate, "1/s");
  r.Add("op_us_p50", w.p50_us, "us");
  r.Add("peak_rss_mb", peak_rss_mb, "MiB");
  r.Add("context.steal_ratio", steal_ratio, "ratio");
  r.Add("context.windows", static_cast<double>(w.windows), "count");
}

void AddLockStatsMetrics(Report& r, const codlock::LockStats& s, double units) {
  auto per = [units](uint64_t v) {
    return units > 0 ? static_cast<double>(v) / units : 0.0;
  };
  const uint64_t total_requests = s.requests.value() + s.cache_hits.value();
  const uint64_t commits = static_cast<uint64_t>(units);
  const uint64_t aborts = s.aborts_timeout.value() + s.aborts_deadlock.value() +
                          s.aborts_shed.value();
  r.Add("lock.lock_manager.lock_requests_per_txn", per(total_requests), "count");
  r.AddRatio("lock.lock_manager.fastpath_hit_ratio",
             static_cast<double>(s.fastpath_grants.value()),
             static_cast<double>(total_requests));
  r.AddRatio("lock.lock_manager.cache_hit_ratio",
             static_cast<double>(s.cache_hits.value()),
             static_cast<double>(total_requests));
  r.Add("lock.lock_manager.waits_per_txn", per(s.waits.value()), "count");
  r.Add("lock.lock_manager.wait_us_p50",
        s.wait_ns.count() ? s.wait_ns.Quantile(0.5) / 1e3 : 0.0, "us");
  r.Add("lock.lock_manager.wait_us_p99",
        s.wait_ns.count() ? s.wait_ns.Quantile(0.99) / 1e3 : 0.0, "us");
  r.AddRatio("lock.lock_manager.conflict_ratio",
             static_cast<double>(s.conflicts.value()),
             static_cast<double>(s.compat_tests.value()));
  r.AddRatio("lock.lock_manager.combine_drained_ratio",
             static_cast<double>(s.combine_drained.value()),
             static_cast<double>(s.combine_published.value()));
  r.Add("lock.lock_manager.deadlocks", static_cast<double>(s.deadlocks.value()),
        "count");
  r.Add("lock.lock_manager.timeouts", static_cast<double>(s.timeouts.value()),
        "count");
  r.Add("proto.co_protocol.upward_propagations_per_txn",
        per(s.upward_propagations.value()), "count");
  r.Add("proto.co_protocol.downward_propagations_per_txn",
        per(s.downward_propagations.value()), "count");
  r.Add("proto.co_protocol.parent_searches_per_txn",
        per(s.parent_searches.value()), "count");
  r.AddRatio("txn.txn_manager.aborts_per_commit", static_cast<double>(aborts),
             static_cast<double>(commits));
  r.AddRatio("txn.txn_manager.retries_per_commit",
             static_cast<double>(s.retries.value()), static_cast<double>(commits));
}

}  // namespace perfbench
