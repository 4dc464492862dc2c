#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

TickSample ReadTicks() {
  TickSample t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const TickSample& from, const TickSample& to) {
  const uint64_t total = to.total - from.total;
  return total ? static_cast<double>(to.steal - from.steal) / static_cast<double>(total)
               : 0.0;
}

double BestShareMedian(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0;
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(kBestShare * static_cast<double>(v.size()))));
  if (higher_is_better) {
    std::sort(v.begin(), v.end(), std::greater<double>());
  } else {
    std::sort(v.begin(), v.end());
  }
  v.resize(keep);
  return Median(std::move(v));
}

WindowFigures BestWindows(uint64_t start_ns, double seconds,
                          const std::vector<uint64_t>& end_ns,
                          const std::vector<double>& us) {
  WindowFigures f;
  const uint64_t period_ns = static_cast<uint64_t>(kWindowS * 1e9);
  // Only whole windows: the operations that end after the deadline
  // finish a partial one.
  f.windows = std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
  std::vector<std::vector<double>> by_window(f.windows);
  for (size_t i = 0; i < end_ns.size(); ++i) {
    if (end_ns[i] < start_ns) continue;
    const size_t w = static_cast<size_t>((end_ns[i] - start_ns) / period_ns);
    if (w < f.windows) by_window[w].push_back(us[i]);
  }
  std::vector<double> rates, p50s;
  for (const std::vector<double>& w : by_window) {
    rates.push_back(static_cast<double>(w.size()) / kWindowS);
    if (!w.empty()) p50s.push_back(Median(w));
  }
  f.rate = BestShareMedian(std::move(rates), /*higher_is_better=*/true);
  f.p50_us = BestShareMedian(std::move(p50s), /*higher_is_better=*/false);
  return f;
}

namespace {

// Runs a register-resident multiply-xorshift chain for `ms` milliseconds
// on each of `threads` threads; returns the aggregate steps per second.
// The chain touches no memory, so it measures the cores' speed and how
// many of them the run gets, not cache or store-forwarding effects.
double SpinRate(int threads, int ms) {
  std::vector<double> rates(static_cast<size_t>(threads), 0.0);
  std::vector<uint64_t> sinks(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&rates, &sinks, t, ms] {
      uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(t);
      uint64_t n = 0;
      const uint64_t start = NowNs();
      const uint64_t end = start + static_cast<uint64_t>(ms) * 1'000'000;
      uint64_t now = start;
      while (now < end) {
        for (int i = 0; i < 4096; ++i) {
          x ^= x >> 12;
          x *= 0x2545F4914F6CDD1DULL;
        }
        n += 4096;
        now = NowNs();
      }
      rates[static_cast<size_t>(t)] =
          static_cast<double>(n) * 1e9 / static_cast<double>(now - start);
      sinks[static_cast<size_t>(t)] = x;
    });
  }
  for (std::thread& th : pool) th.join();
  // Keeps the chains observable so they are not folded away.
  if (std::accumulate(sinks.begin(), sinks.end(), uint64_t{0}) == 42) rates[0] += 1e-9;
  return std::accumulate(rates.begin(), rates.end(), 0.0);
}

}  // namespace

Context ProbeContext() {
  Context c;
#ifdef NDEBUG
  c.build_type = "release";
#else
  c.build_type = "debug";
#endif
  c.nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  // Best of three short trials per thread count: a trial that lost its
  // core to a neighbour says nothing about the cores the run can get.
  auto best = [](int threads) {
    double r = 0;
    for (int i = 0; i < 3; ++i) r = std::max(r, SpinRate(threads, 30));
    return r;
  };
  const double one = best(1);
  c.calibration_mops = one / 1e6;
  for (long t = 1; t <= c.nproc; ++t) {
    const double rate = t == 1 ? one : best(static_cast<int>(t));
    c.speedup.push_back(one > 0 ? rate / one : 0);
  }
  c.effective_parallelism = c.speedup.back();
  return c;
}

std::string ContextJson(const Context& c) {
  std::ostringstream os;
  os << "{\"context\": {\"build_type\": \"" << c.build_type
     << "\", \"nproc\": " << c.nproc
     << ", \"calibration_mops\": " << c.calibration_mops
     << ", \"effective_parallelism\": " << c.effective_parallelism
     << ", \"speedup_by_threads\": [";
  for (size_t i = 0; i < c.speedup.size(); ++i) {
    os << (i ? ", " : "") << c.speedup[i];
  }
  os << "]}}";
  return os.str();
}

uint64_t ReadWchar(bool this_thread_only) {
  std::ifstream in(this_thread_only ? "/proc/thread-self/io" : "/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

uint64_t RunClients(const std::function<void(int)>& body) {
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  std::vector<std::thread> pool;
  for (int t = 0; t < kClients; ++t) {
    pool.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lk(mu);
        ++ready;
        cv.notify_all();
        cv.wait(lk, [&] { return go; });
      }
      body(t);
    });
  }
  uint64_t start_ns = 0;
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return ready == kClients; });
    go = true;
    start_ns = NowNs();
  }
  cv.notify_all();
  for (std::thread& th : pool) th.join();
  return start_ns;
}

}  // namespace perfbench
