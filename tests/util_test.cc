/// Tests for util: Status, Result, Rng, metrics.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace codlock {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Deadlock("x").IsDeadlock());
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::Unauthorized("x").IsUnauthorized());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  Status s = Status::Deadlock("cycle found");
  EXPECT_EQ(s.ToString(), "Deadlock: cycle found");
  EXPECT_EQ(s.message(), "cycle found");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Timeout("a"));
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fn = [](bool fail) -> Status {
    CODLOCK_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_TRUE(fn(true).IsInternal());
  EXPECT_TRUE(fn(false).IsAlreadyExists());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(77);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(LatencyHistogramTest, CountMeanMax) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.max(), 300u);
}

TEST(LatencyHistogramTest, QuantileMonotonic) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i * 1000);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
  EXPECT_GT(h.Quantile(0.99), 100'000u);
}

TEST(LatencyHistogramTest, MergeAccumulates) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 30u);
}

TEST(CounterTest, ThreadSafeIncrements) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 80000u);
}

TEST(LockStatsTest, ResetClearsEverything) {
  LockStats s;
  s.requests.Add(5);
  s.deadlocks.Add(1);
  s.wait_ns.Record(123);
  s.held_locks.store(9);
  s.Reset();
  EXPECT_EQ(s.requests.value(), 0u);
  EXPECT_EQ(s.deadlocks.value(), 0u);
  EXPECT_EQ(s.wait_ns.count(), 0u);
  EXPECT_EQ(s.held_locks.load(), 0);
}

TEST(LockStatsTest, ReportsLeaveOutCountersNothingIncrements) {
  // fastpath_grants and combine_* stay as fields only for readers that
  // still name them; the reports list live counters alone.
  LockStats s;
  s.cache_hits.Add(3);
  s.fastpath_grants.Add(7);
  s.combine_published.Add(7);
  for (const std::string& report : {s.ToString(), s.ToJson()}) {
    EXPECT_NE(report.find("cache_hits"), std::string::npos) << report;
    EXPECT_EQ(report.find("fastpath"), std::string::npos) << report;
    EXPECT_EQ(report.find("combine"), std::string::npos) << report;
  }
  EXPECT_NE(s.ToJson().find("\"cache_hits\": 3"), std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  SUCCEED();  // elapsed is monotone, just sanity-check non-negativity
  EXPECT_GE(sw.ElapsedNanos(), 0u);
}

}  // namespace
}  // namespace codlock
