// Tests for the Experiment facade: scheme wiring, derived configuration
// (buffers, ECN, PFC), and the telemetry helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"

namespace themis {
namespace {

ExperimentConfig TinyConfig(Scheme scheme) {
  ExperimentConfig config;
  config.num_tors = 4;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = scheme;
  config.cc = CcKind::kFixedRate;
  return config;
}

TEST(ExperimentConfigTest, SchemeInstallsExpectedTorPolicy) {
  struct Case {
    Scheme scheme;
    const char* tor_lb;
    const char* spine_lb;
  };
  const Case cases[] = {
      {Scheme::kEcmp, "ecmp", "ecmp"},
      {Scheme::kAdaptiveRouting, "adaptive", "adaptive"},
      {Scheme::kRandomSpray, "random-spray", "random-spray"},
      {Scheme::kFlowlet, "flowlet", "flowlet"},
      {Scheme::kThemis, "psn-spray", "ecmp"},
  };
  for (const Case& c : cases) {
    Experiment exp(TinyConfig(c.scheme));
    EXPECT_STREQ(exp.topology().tors[0]->data_lb()->name(), c.tor_lb) << SchemeName(c.scheme);
    for (Switch* sw : exp.topology().switches) {
      if (sw->name().rfind("spine", 0) == 0) {
        EXPECT_STREQ(sw->data_lb()->name(), c.spine_lb) << SchemeName(c.scheme);
        break;
      }
    }
    EXPECT_EQ(exp.themis() != nullptr, c.scheme == Scheme::kThemis);
  }
}

TEST(ExperimentConfigTest, PortQueueDerivedFromSharedBuffer) {
  ExperimentConfig config = TinyConfig(Scheme::kEcmp);
  config.switch_buffer_bytes = 64 * 1024 * 1024;
  Experiment exp(config);
  // 4 hosts + 4 spines per ToR -> 8 ports.
  EXPECT_EQ(exp.config().port_queue_bytes, 64 * 1024 * 1024 / 8);
}

TEST(ExperimentConfigTest, ExplicitPortQueueWins) {
  ExperimentConfig config = TinyConfig(Scheme::kEcmp);
  config.port_queue_bytes = 123456;
  Experiment exp(config);
  EXPECT_EQ(exp.config().port_queue_bytes, 123456);
}

TEST(ExperimentConfigTest, EcnThresholdsScaleWithRate) {
  Experiment exp(TinyConfig(Scheme::kEcmp));  // 100G = 1/4 of the 400G reference
  EXPECT_EQ(exp.config().ecn.kmin_bytes, 100 * 1024 / 4);
  EXPECT_EQ(exp.config().ecn.kmax_bytes, 400 * 1024 / 4);
}

TEST(ExperimentConfigTest, FixedRateDefaultsToLineRate) {
  Experiment exp(TinyConfig(Scheme::kEcmp));
  EXPECT_EQ(exp.qp_config().fixed_rate, Rate::Gbps(100));
}

TEST(ExperimentConfigTest, ThemisQueueCapacitySizedFromLastHop) {
  ExperimentConfig config = TinyConfig(Scheme::kThemis);
  Experiment exp(config);
  // Capacity = ceil(BW * RTT_last * F / MTU) with RTT_last ~ 2 us + ser.
  const size_t capacity = exp.themis()->d_hooks()[0]->config().queue_capacity;
  EXPECT_GE(capacity, 25u);
  EXPECT_LE(capacity, 40u);
}

TEST(ExperimentTelemetryTest, FlowCompletionTimesMatchFlows) {
  Experiment exp(TinyConfig(Scheme::kThemis));
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, {{0, 4, 8, 12}}, 1 << 20);
  ASSERT_TRUE(result.all_done);
  const auto times = exp.FlowCompletionTimesMs();
  EXPECT_EQ(times.size(), 4u);  // one flow per ring hop
  for (double ms : times) {
    EXPECT_GT(ms, 0.0);
    EXPECT_LE(ms, ToMilliseconds(result.tail_completion));
  }
}

TEST(ExperimentTelemetryTest, SpineDataBytesCoversAllSpines) {
  Experiment exp(TinyConfig(Scheme::kThemis));
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, {{0, 4, 8, 12}}, 1 << 20);
  ASSERT_TRUE(result.all_done);
  const auto loads = exp.SpineDataBytes();
  ASSERT_EQ(loads.size(), 4u);
  for (uint64_t load : loads) {
    EXPECT_GT(load, 0u);
  }
}

TEST(ExperimentTelemetryTest, ThemisSpraysMoreEvenlyThanEcmp) {
  auto balance = [](Scheme scheme) {
    Experiment exp(TinyConfig(scheme));
    auto result =
        exp.RunCollective(CollectiveKind::kNeighborRing, {{0, 4, 8, 12}, {1, 5, 9, 13}},
                          2 << 20, 10 * kSecond);
    EXPECT_TRUE(result.all_done);
    return exp.SprayBalanceIndex();
  };
  const double themis_balance = balance(Scheme::kThemis);
  const double ecmp_balance = balance(Scheme::kEcmp);
  EXPECT_GT(themis_balance, 0.99);  // deterministic PSN spraying: near-perfect
  EXPECT_LT(ecmp_balance, themis_balance);
}

TEST(ExperimentTelemetryTest, BalanceIndexEdgeCases) {
  // No traffic at all: defined as 1.0.
  Experiment exp(TinyConfig(Scheme::kEcmp));
  EXPECT_DOUBLE_EQ(exp.SprayBalanceIndex(), 1.0);
}

// --- SweepRunner contract (sweep_runner.h) ----------------------------------
//
// The experiment service's shard executor depends on these edge cases, in
// both the serial (threads == 1) and pooled paths.

TEST(SweepRunnerTest, ZeroPointGridIsANoOp) {
  for (int threads : {1, 4}) {
    SweepRunner runner(threads);
    int calls = 0;
    runner.RunIndexed(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    EXPECT_TRUE(runner.Map(std::vector<int>{}, [](int v) { return v; }).empty());
  }
}

TEST(SweepRunnerTest, SinglePointGridRunsExactlyOnce) {
  for (int threads : {1, 4}) {
    SweepRunner runner(threads);
    std::atomic<int> calls{0};
    runner.RunIndexed(1, [&](size_t i) {
      EXPECT_EQ(i, 0u);
      ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
  }
}

TEST(SweepRunnerTest, MoreThreadsThanPointsRunsEachPointOnce) {
  SweepRunner runner(16);
  constexpr size_t kPoints = 5;
  std::vector<std::atomic<int>> hits(kPoints);
  runner.RunIndexed(kPoints, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "point " << i;
  }
}

TEST(SweepRunnerTest, ThrowingPointDoesNotStarveTheOthers) {
  // One poisoned grid point must not cost the rest of the sweep: every other
  // index still runs, and the exception surfaces after the drain. Identical
  // behaviour serial and pooled — this is what lets a shard journal its good
  // points when one case blows up.
  for (int threads : {1, 4}) {
    SweepRunner runner(threads);
    constexpr size_t kPoints = 7;
    std::vector<std::atomic<int>> hits(kPoints);
    EXPECT_THROW(
        runner.RunIndexed(kPoints,
                          [&](size_t i) {
                            ++hits[i];
                            if (i == 2) {
                              throw std::runtime_error("poisoned point");
                            }
                          }),
        std::runtime_error)
        << "threads=" << threads;
    for (size_t i = 0; i < kPoints; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " point " << i;
    }
  }
}

TEST(SweepRunnerTest, MapReturnsResultsInInputOrder) {
  SweepRunner runner(8);
  std::vector<int> items(64);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  const std::vector<int> doubled = runner.Map(items, [](int v) { return v * 2; });
  ASSERT_EQ(doubled.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doubled[i], static_cast<int>(i) * 2);
  }
}

// THEMIS_SWEEP_THREADS resolves before any worker exists, so a bad value is
// tested on ResolveThreadCount itself, never by starting a pool.
TEST(SweepRunnerTest, ThreadEnvIsParsedWhole) {
  setenv("THEMIS_SWEEP_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(SweepRunner::ResolveThreadCount(0), 3);
  EXPECT_EQ(SweepRunner::ResolveThreadCount(5), 5);  // explicit count wins
  setenv("THEMIS_SWEEP_THREADS", "0", /*overwrite=*/1);
  EXPECT_GE(SweepRunner::ResolveThreadCount(0), 1);  // 0 = hardware concurrency
  unsetenv("THEMIS_SWEEP_THREADS");
}

TEST(SweepRunnerDeathTest, RejectsMalformedThreadEnv) {
  const std::string above = std::to_string(SweepRunner::kMaxThreads + 1);
  for (const std::string bad : {"4x", "", " 4", "-1", "abc", above.c_str(), "99999999999"}) {
    EXPECT_EXIT(
        {
          setenv("THEMIS_SWEEP_THREADS", bad.c_str(), /*overwrite=*/1);
          SweepRunner::ResolveThreadCount(0);
        },
        testing::ExitedWithCode(1), "THEMIS_SWEEP_THREADS='" + bad + "': ")
        << "value '" << bad << "'";
  }
}

}  // namespace
}  // namespace themis
