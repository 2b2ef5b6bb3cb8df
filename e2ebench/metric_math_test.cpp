// Tests of the benchmark's metric arithmetic: the percentile rule, self time,
// the rate-ladder search, due-time latency in the open loop and windowed
// completion rates in the closed loop.
#include "metric_math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace e2ebench {
namespace {

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.21), 2);  // ceil(1.05) = rank 2
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(Percentile, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_EQ(supported_percentile(0), 0);
  EXPECT_EQ(supported_percentile(19), 0);
  EXPECT_EQ(supported_percentile(20), 50);
  EXPECT_EQ(supported_percentile(99), 50);
  EXPECT_EQ(supported_percentile(100), 90);
  EXPECT_EQ(supported_percentile(999), 90);
  EXPECT_EQ(supported_percentile(1000), 99);
  EXPECT_EQ(supported_percentile(9999), 99);
  EXPECT_EQ(supported_percentile(10000), 99.9);
  EXPECT_EQ(supported_percentile(1000000), 99.999);
}

TEST(Percentile, P99OfAThousandLeavesTenAbove) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double p99 = quantile(v, 0.99);
  int beyond = 0;
  for (double x : v) beyond += x > p99;
  EXPECT_EQ(p99, 990);
  EXPECT_EQ(beyond, 10);
}

SpanRecord span(const char* label, double start, double end,
                std::uint32_t thread, std::uint32_t depth) {
  return SpanRecord{label, start, end, thread, depth};
}

TEST(SelfTime, ParentMinusChildren) {
  const auto t = self_times({span("batch", 0, 10, 0, 0),
                             span("gemm", 1, 4, 0, 1),
                             span("gemm", 5, 7, 0, 1)});
  EXPECT_EQ(t.at("batch").count, 1);
  EXPECT_DOUBLE_EQ(t.at("batch").total_s, 10);
  EXPECT_DOUBLE_EQ(t.at("batch").self_s, 5);
  EXPECT_EQ(t.at("gemm").count, 2);
  EXPECT_DOUBLE_EQ(t.at("gemm").self_s, 5);
}

TEST(SelfTime, OnlyDirectChildrenOnTheSameThreadCount) {
  const auto t = self_times({
      span("run", 0, 10, 0, 0),
      span("batch", 1, 9, 0, 1),
      span("gemm", 2, 6, 0, 2),      // grandchild: charged to batch only
      span("produce", 0, 10, 1, 0),  // another thread: never a child
  });
  EXPECT_DOUBLE_EQ(t.at("run").self_s, 2);
  EXPECT_DOUBLE_EQ(t.at("batch").self_s, 4);
  EXPECT_DOUBLE_EQ(t.at("gemm").self_s, 4);
  EXPECT_DOUBLE_EQ(t.at("produce").self_s, 10);
}

TEST(SelfTime, TopLevelSelfTimesAddUpToWallTime) {
  // Every interval of the run is charged to exactly one span's self time.
  const auto t = self_times({span("setup", 0, 3, 0, 0),
                             span("write", 0.5, 2, 0, 1),
                             span("train", 3, 9, 0, 0),
                             span("gemm", 4, 8, 0, 1),
                             span("serve", 9, 12, 0, 0)});
  double self = 0;
  for (const auto& [label, time] : t) self += time.self_s;
  EXPECT_DOUBLE_EQ(self, 12);
}

TEST(SelfTime, ChildCoverageIsClippedAndNeverNegative) {
  const auto t = self_times({span("a", 0, 2, 0, 0),
                             span("b", 1, 3, 0, 1),  // overhangs its parent
                             span("c", 1.5, 2.5, 0, 1)});
  EXPECT_DOUBLE_EQ(t.at("a").self_s, 1);
  EXPECT_GE(t.at("b").self_s, 0);
}

TEST(SelfTime, BusySecondsCountConcurrentSpansOnce) {
  // Two replicas run GEMMs at once on different threads.
  const std::vector<SpanRecord> spans = {
      span("gemm", 0, 4, 1, 2), span("gemm", 1, 3, 2, 2),
      span("gemm", 5, 6, 1, 2), span("other", 0, 10, 0, 0)};
  EXPECT_DOUBLE_EQ(busy_seconds(spans, "gemm"), 5);
  EXPECT_DOUBLE_EQ(busy_seconds(spans, "missing"), 0);
}

TEST(RateLadder, RungsAreGeometric) {
  const RateLadder ladder{1000, 4, 40};
  EXPECT_DOUBLE_EQ(ladder.rate(0), 1000);
  EXPECT_DOUBLE_EQ(ladder.rate(4), 2000);
  EXPECT_NEAR(ladder.rate(2), 1000 * std::sqrt(2.0), 1e-9);
}

TEST(RateLadder, FindsTheHighestPassingRung) {
  const RateLadder ladder{1000, 16, 160};
  for (int limit : {0, 1, 15, 16, 17, 37, 64, 159, 160}) {
    std::set<int> probed;
    const int found = search_max_rung(ladder, [&](int rung) {
      EXPECT_TRUE(probed.insert(rung).second) << "rung probed twice";
      return rung <= limit;
    });
    EXPECT_EQ(found, limit);
    // Doubling then bisecting: about log2(range) + log2(steps) probes.
    EXPECT_LE(probed.size(), 16u) << "limit " << limit;
  }
}

TEST(RateLadder, StartsFromAKnownPassingRung) {
  const RateLadder ladder{1000, 16, 160};
  std::set<int> probed;
  const int found = search_max_rung(
      ladder,
      [&](int rung) {
        probed.insert(rung);
        return rung <= 40;
      },
      /*known_pass=*/32);
  EXPECT_EQ(found, 40);
  EXPECT_EQ(probed.count(0), 0u);
  EXPECT_EQ(probed.count(32), 0u);
  EXPECT_EQ(*probed.begin(), 40);  // bisection between 32 and 48 only
}

TEST(RateLadder, ReportsMinusOneWhenTheBaseRungFails) {
  const RateLadder ladder{1000, 16, 160};
  EXPECT_EQ(search_max_rung(ladder, [](int) { return false; }), -1);
}

TEST(OpenLoop, ScheduleIsSeededAndHasTheOfferedRate) {
  const auto a = poisson_schedule(2000, 5, 7);
  const auto b = poisson_schedule(2000, 5, 7);
  const auto c = poisson_schedule(2000, 5, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 10000, 400);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 5);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  // A stalled generator sends request 1 late; its latency counts the whole
  // wait since it was due, not just the send-to-reply time.
  const std::vector<double> due = {0.0, 0.001, 0.002};
  const std::vector<double> sent = {0.0, 0.010, 0.010};
  const std::vector<double> done = {0.0005, 0.0105, 0.0106};
  EXPECT_NEAR(due_latency_s(due[1], done[1]), 0.0095, 1e-12);
  const OpenLoopSummary s = summarize_open_loop(due, sent, done, 0.009, 1.0);
  EXPECT_EQ(s.attempted, 3u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_NEAR(s.p50_s, 0.0086, 1e-12);
  EXPECT_NEAR(s.lag_p99_s, 0.009, 1e-12);
  EXPECT_EQ(s.within_budget, 2u);  // 0.0095 s misses a 9 ms budget
}

TEST(OpenLoop, FailuresMissTheBudgetAndFailTheRung) {
  std::vector<double> due, sent, done;
  for (int i = 0; i < 2000; ++i) {
    due.push_back(i * 1e-3);
    sent.push_back(i * 1e-3);
    done.push_back(i * 1e-3 + 2e-3);
  }
  EXPECT_TRUE(
      rung_passes(summarize_open_loop(due, sent, done, 0.01, 1.0), 0.01));
  done[5] = -1;  // one rejected request
  const OpenLoopSummary s = summarize_open_loop(due, sent, done, 0.01, 1.0);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_FALSE(rung_passes(s, 0.01));
}

TEST(OpenLoop, GrowingBacklogFailsTheRung) {
  std::vector<double> due, sent, done;
  for (int i = 0; i < 2000; ++i) {
    due.push_back(i * 1e-3);
    sent.push_back(i * 1e-3);
    // The server falls behind: each request waits 0.5 ms longer.
    done.push_back(i * 1e-3 + 1e-3 + i * 0.5e-3);
  }
  const OpenLoopSummary s = summarize_open_loop(due, sent, done, 0.01, 1.0);
  EXPECT_TRUE(s.backlog_grew);
  EXPECT_FALSE(rung_passes(s, 0.01));
}

TEST(OpenLoop, WindowedP99IgnoresOneStalledWindow) {
  std::vector<double> due, done;
  for (int i = 0; i < 5000; ++i) {  // 5 windows of 1000 requests
    due.push_back(i * 1e-3);
    done.push_back(i * 1e-3 + 2e-3);
  }
  for (int i = 1500; i < 1560; ++i) done[i] += 0.05;  // a 50 ms stall
  EXPECT_GT(quantile([&] {
              std::vector<double> l;
              for (std::size_t i = 0; i < due.size(); ++i)
                l.push_back(done[i] - due[i]);
              return l;
            }(),
                     0.99),
            0.01);
  EXPECT_NEAR(median_window_p99(due, done, 1.0), 2e-3, 1e-12);
}

TEST(OpenLoop, OneStalledWindowDoesNotFailTheRung) {
  std::vector<double> due, sent, done;
  for (int i = 0; i < 5000; ++i) {
    due.push_back(i * 1e-4);
    sent.push_back(i * 1e-4);
    done.push_back(i * 1e-4 + 2e-3);
  }
  for (int i = 1000; i < 1100; ++i) done[i] += 0.02;  // one 20 ms stall
  const OpenLoopSummary s = summarize_open_loop(due, sent, done, 0.01, 0.1);
  EXPECT_GT(s.p99_s, 0.01);
  EXPECT_LT(s.window_p99_s, 0.01);
  EXPECT_TRUE(rung_passes(s, 0.01));
}

TEST(OpenLoop, WindowedP99FallsBackToTheWholeSample) {
  std::vector<double> due, done;
  for (int i = 0; i < 1500; ++i) {
    due.push_back(i * 1e-3);
    done.push_back(i * 1e-3 + (i % 50 == 0 ? 5e-3 : 1e-3));
  }
  // 0.5 s windows hold 500 requests each: too few for a p99 of their own.
  EXPECT_NEAR(median_window_p99(due, done, 0.5), 5e-3, 1e-12);
}

TEST(OpenLoop, TooFewSamplesForP99FailTheRung) {
  std::vector<double> due(500, 0.0), sent(500, 0.0), done(500, 1e-3);
  const OpenLoopSummary s = summarize_open_loop(due, sent, done, 0.01, 1.0);
  EXPECT_EQ(s.tail_pct, 90);
  EXPECT_FALSE(rung_passes(s, 0.01));
}

TEST(ClosedLoop, WindowRatesCountCompletionsPerWindow) {
  std::vector<double> done;  // 1000 completions per second
  for (int i = 0; i < 300; ++i) done.push_back(0.1 + (i + 0.5) * 1e-3);
  done.push_back(-1);    // a failed request counts nowhere
  done.push_back(0.05);  // before the measured span
  const std::vector<double> r = window_rates(done, 0.1, 0.35, 0.1);
  // Two whole windows; the 0.05 s tail is dropped.
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r[0], 1000, 1e-6);  // 99 gaps over 99 ms
  EXPECT_NEAR(r[1], 1000, 1e-6);
  EXPECT_TRUE(window_rates(done, 0.1, 0.1, 0.1).empty());
}

TEST(ClosedLoop, MedianWindowRateShrugsOffOneStall) {
  std::vector<double> done;
  // Five 0.2 s windows at 500/s, except a stall that empties the second.
  for (int i = 0; i < 500; ++i) {
    const double t = (i + 0.5) * 2e-3;
    if (t >= 0.2 && t < 0.4) continue;
    done.push_back(t);
  }
  const std::vector<double> r = window_rates(done, 0.0, 1.0, 0.2);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_NEAR(r[1], 0, 1e-9);
  EXPECT_NEAR(median(r), 500, 1e-6);
}

}  // namespace
}  // namespace e2ebench
