// The three workloads.  Each builds its inputs from the seed, measures a
// closed loop of kClients threads for the requested time, checks the
// program's outputs and fills a Report: end-to-end metrics when
// untraced, per-layer metrics (from the ladder) when traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "trace.h"
#include "util/metrics.h"

namespace perfbench {

Report RunCheckoutStanding(const Options& opt);
Report RunShortSharedUpdate(const Options& opt);
Report RunShortDeepRead(const Options& opt);

/// Set-ups per untraced run: at least kMinSetups and at least
/// kMinSetupSeconds in total (at most kMaxSetups); `setup_s` is the
/// BestShareMedian of their times.  A sub-millisecond set-up is repeated
/// thousands of times: its figure is only steady over a second of them.
inline constexpr int kMinSetups = 8;
inline constexpr int kMaxSetups = 10000;
inline constexpr double kMinSetupSeconds = 2.0;

/// True while another set-up should be measured (one when traced).
inline bool MoreSetups(bool traced, const std::vector<double>& setup_s) {
  if (traced) return setup_s.empty();
  double total = 0;
  for (double t : setup_s) total += t;
  const int n = static_cast<int>(setup_s.size());
  return n < kMaxSetups && (n < kMinSetups || total < kMinSetupSeconds);
}

/// The warm-up is a fixed number of loop iterations per client (sessions
/// or transactions; about a second's worth each), so that `peak_rss_mb`,
/// read right after it, covers the same work in every run: the server
/// keeps memory per finished transaction, and a run-length reading would
/// follow the run's throughput.  kWarmupCapS bounds it on a slow host.
inline constexpr double kWarmupCapS = 20.0;

/// Rounds in which a traced run interleaves the ladder's rungs.
inline constexpr int kTraceRounds = 4;

/// The short workloads capture lock chains of every 8th traced
/// transaction (see TracingProtocol); sessions are slow enough to capture
/// all of them.
inline constexpr size_t kShortCaptureEvery = 8;

/// Tolerance of the ladder test: the layers' median self times must add
/// up to the untraced end-to-end median within this share of it.
inline constexpr double kLadderTolerance = 0.25;

/// Median self time (µs) of each rung-3/4 layer for one operation kind;
/// `glue` is the rung-3 time outside every layer span (the server logic
/// the decomposed stack repeats, such as the retry loop), which is
/// charged to the server.
struct LayerMedians {
  double planner = 0, txn = 0, executor = 0, protocol = 0, lock_manager = 0,
         store = 0, glue = 0;
  /// The layers below the server.
  double Sum() const {
    return planner + txn + executor + protocol + lock_manager + store;
  }
};
LayerMedians MediansOf(const SelfTimes& s);

/// Adds the ladder test for one operation kind: the layer sum, the
/// untraced end-to-end median it must match, and their relative error.
/// A miss beyond kLadderTolerance is recorded as a violation.
void AddLadderCheck(Report& r, const std::string& prefix, double layer_sum_us,
                    double e2e_us);

/// The end-to-end metrics of an untraced run: `setup_s` from the run's
/// set-up times, `throughput_ops_s` and `op_us_p50` from the measured
/// phase (see BestWindows) and `peak_rss_mb` as read after warm-up; plus,
/// for the table, the host's steal share over the phase and its window
/// count.
void AddEndToEnd(Report& r, const std::vector<double>& setup_s, double peak_rss_mb,
                 uint64_t start_ns, double seconds, const std::vector<uint64_t>& end_ns,
                 const std::vector<double>& us, double steal_ratio);

/// Lock-manager, protocol and transaction counters over a measured
/// window, per committed unit of work (\p units).
void AddLockStatsMetrics(Report& r, const codlock::LockStats& s, double units);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
