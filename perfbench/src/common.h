// Shared pieces of the end-to-end benchmark: options, the per-thread
// sample logs, the closed-loop driver, the metric table and the
// comparability context.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Client threads per workload: half of the 4 vCPUs the benchmark was
/// sized on, so the two host workers (checkout_standing) and the lock
/// waiters (short_*) have cores of their own.
inline constexpr int kClients = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (store files, span dumps).
  std::string workdir;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile of \p v (copied, so callers keep their order).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v);

/// VM-wide CPU time from the first line of /proc/stat, in clock ticks:
/// the time the hypervisor gave to other guests while this one wanted to
/// run (`steal`) and all accounted time (`total`).
struct TickSample {
  uint64_t steal = 0;
  uint64_t total = 0;
};
TickSample ReadTicks();
/// Steal share of the host's CPU time between two samples (0 when no
/// tick elapsed).
double StealShare(const TickSample& from, const TickSample& to);

/// Length of the windows a measured phase is cut into.
inline constexpr double kWindowS = 0.5;
/// Share of a phase's windows, or of a run's set-ups, that a figure is
/// taken over: the best ones.  On a shared host, other guests slow the
/// run in bursts (CPU steal, disk and cache contention) that only ever
/// make it slower; the best quarter of many short windows is what the
/// program does between bursts, and it moves less from run to run than
/// a median over every window.  A change to the program moves every
/// window, the best ones too.
inline constexpr double kBestShare = 0.25;

/// Median of the best kBestShare of \p v (at least one value): the
/// highest values when \p higher_is_better, else the lowest.
double BestShareMedian(std::vector<double> v, bool higher_is_better);

/// Throughput and median latency of a measured phase that started at
/// `start_ns` and lasted `seconds`, from its whole kWindowS windows: each
/// window's completions per second and the median latency of the
/// operations that ended in it, each taken as the BestShareMedian over
/// the windows.  `us[i]` is the latency of the operation that ended at
/// `end_ns[i]`.
struct WindowFigures {
  double rate = 0;
  double p50_us = 0;
  size_t windows = 0;
};
WindowFigures BestWindows(uint64_t start_ns, double seconds,
                          const std::vector<uint64_t>& end_ns,
                          const std::vector<double>& us);

/// One named metric as printed on the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output-check violations; any entry makes the run incorrect.
  std::vector<std::string> violations;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A ratio together with its base (the denominator it was taken over).
  void AddRatio(const std::string& name, double num, double base,
                const std::string& base_unit = "count") {
    Add(name, base > 0 ? num / base : 0.0, "ratio");
    Add(name + "_base", base, base_unit);
  }
  void Violation(std::string what) {
    correct = false;
    violations.push_back(std::move(what));
  }
};

/// Host comparability context (build type, CPUs, measured parallelism).
struct Context {
  const char* build_type = "";
  long nproc = 1;
  /// Spin-loop increments per second of one thread, in millions.
  double calibration_mops = 0;
  /// Aggregate spin rate at t threads divided by the 1-thread rate,
  /// for t = 1..nproc.
  std::vector<double> speedup;
  double effective_parallelism = 0;  ///< speedup at nproc threads
};
Context ProbeContext();
std::string ContextJson(const Context& c);

/// `wchar` from /proc/self/io (whole process) or /proc/thread-self/io.
uint64_t ReadWchar(bool this_thread_only);
/// CPU time (user + system) of all threads of the process so far, in
/// seconds.  Time the hypervisor stole is not charged to it.
double ProcessCpuSeconds();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Runs \p body(thread_index) on kClients threads that start together and
/// joins them; returns the time at which they were let go.  Bodies own
/// their logs; nothing is shared on the measured path.
uint64_t RunClients(const std::function<void(int)>& body);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
