// Event-engine hot-path microbenchmark.
//
// Workloads:
//  1. Synthetic churn — 256 "flows", each packet event re-arms its flow's
//     RTO-style timer (and every 7th cancels a neighbour's), then schedules
//     the next packet 0–2 us out. This is the Simulator's packet-path access
//     pattern distilled: tiny captures, constant timer arm/cancel churn, a
//     queue depth of a few hundred entries.
//  2. A real Fig.-1-scale collective (2x4x8 hosts, RandomSpray + NIC-SR +
//     DCQCN), measuring end-to-end events/sec through the full model stack,
//     the per-tier schedule counts, the calendar's collected bucket and
//     entry counts, and its node-pool high-water mark (the most entries
//     ever bucketed at once), all exact and identical on every rep.
//
// Rates are host-dependent trends; the event and schedule counts are the
// determinism anchor (CI pins them).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/experiment.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace themis {
namespace {

// --- Synthetic churn workload ------------------------------------------------

struct ChurnStats {
  uint64_t packets = 0;
  uint64_t executed = 0;
  double wall_seconds = 0.0;
};

ChurnStats RunChurn(int num_flows, uint64_t budget) {
  struct Flow {
    uint64_t fires = 0;
  };

  Simulator sim;
  Rng rng(7);
  std::vector<Flow> flows(static_cast<size_t>(num_flows));
  std::vector<std::unique_ptr<Timer>> timers;
  timers.reserve(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    timers.push_back(std::make_unique<Timer>(&sim, [&flows, i] { ++flows[i].fires; }));
  }

  uint64_t sent = 0;
  std::function<void(size_t)> packet_event = [&](size_t i) {
    if (++sent >= budget) {
      sim.Stop();
      return;
    }
    // RTO-style churn: every "packet" re-arms the flow's timer; it rarely
    // fires. Every 7th packet cancels a neighbour's timer.
    timers[i]->Arm(100 * kMicrosecond);
    if (sent % 7 == 0) {
      timers[(i + 1) % timers.size()]->Cancel();
    }
    const TimePs delay = 1 + static_cast<TimePs>(rng.Below(2 * kMicrosecond));
    sim.Schedule(delay, [&packet_event, i] { packet_event(i); });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < flows.size(); ++i) {
    sim.Schedule(static_cast<TimePs>(i), [&packet_event, i] { packet_event(i); });
  }
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  ChurnStats stats;
  stats.packets = sent;
  stats.executed = sim.events_executed();
  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return stats;
}

double BestChurnRate(int num_flows, uint64_t budget, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const ChurnStats stats = RunChurn(num_flows, budget);
    const double rate = stats.packets / stats.wall_seconds / 1e6;
    best = rate > best ? rate : best;
    std::printf("  rep=%d packets=%llu executed=%llu wall=%.3fs -> %.2f M packet-events/s\n", r,
                static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.executed), stats.wall_seconds, rate);
  }
  return best;
}

// --- Real Fig.-1-scale run ---------------------------------------------------

// Per-tier schedule counts of the last rep plus the best rate, for the CI
// artifact.
struct TierBreakdown {
  uint64_t heap = 0;
  uint64_t wheel = 0;  // cancellable timer arms; "wheel" is the pinned CSV row
  uint64_t calendar = 0;
  uint64_t calendar_buckets_collected = 0;
  uint64_t calendar_entries_collected = 0;
  uint64_t calendar_node_pool = 0;  // high-water mark of bucketed entries
  double best_events_per_sec = 0.0;
  uint64_t events_executed = 0;  // determinism anchor: identical across reps
};

TierBreakdown RunFig1Scale(int reps) {
  TierBreakdown breakdown;
  for (int r = 0; r < reps; ++r) {
    ExperimentConfig config;
    config.num_tors = 2;
    config.num_spines = 4;
    config.hosts_per_tor = 4;
    config.link_rate = Rate::Gbps(100);
    config.scheme = Scheme::kRandomSpray;
    config.transport = TransportKind::kNicSr;
    config.cc = CcKind::kDcqcn;
    config.dcqcn_ti = 10 * kMicrosecond;
    config.dcqcn_td = 200 * kMicrosecond;
    config.fabric_delay_skew = 200 * kNanosecond;
    Experiment exp(config);
    const std::vector<std::vector<int>> rings = {{0, 4, 1, 5}, {2, 6, 3, 7}};
    const auto t0 = std::chrono::steady_clock::now();
    auto result =
        exp.RunCollective(CollectiveKind::kNeighborRing, rings, 8ull << 20, 60 * kSecond);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double rate = exp.sim().events_executed() / secs / 1e6;
    std::printf("  fig1 rep=%d done=%d sim_ms=%.3f executed=%llu wall=%.3fs -> "
                "%.2f M events/s\n",
                r, result.all_done ? 1 : 0, ToMilliseconds(result.tail_completion),
                static_cast<unsigned long long>(exp.sim().events_executed()), secs, rate);
    const EventQueue& q = exp.sim().queue();
    const double best = rate > breakdown.best_events_per_sec ? rate
                                                             : breakdown.best_events_per_sec;
    breakdown = TierBreakdown{q.heap_scheduled(),
                              q.wheel_scheduled(),
                              q.calendar_scheduled(),
                              q.calendar().buckets_collected(),
                              q.calendar().entries_collected(),
                              q.calendar().node_pool_size(),
                              best,
                              exp.sim().events_executed()};
  }
  std::printf("  per-tier scheduled: heap=%llu wheel=%llu calendar=%llu "
              "(calendar share %.1f%%)\n",
              static_cast<unsigned long long>(breakdown.heap),
              static_cast<unsigned long long>(breakdown.wheel),
              static_cast<unsigned long long>(breakdown.calendar),
              100.0 * static_cast<double>(breakdown.calendar) /
                  static_cast<double>(breakdown.heap + breakdown.wheel + breakdown.calendar));
  std::printf("  calendar collected: %llu buckets, %llu entries (%.2f per bucket); "
              "node pool peak %llu\n",
              static_cast<unsigned long long>(breakdown.calendar_buckets_collected),
              static_cast<unsigned long long>(breakdown.calendar_entries_collected),
              static_cast<double>(breakdown.calendar_entries_collected) /
                  static_cast<double>(breakdown.calendar_buckets_collected),
              static_cast<unsigned long long>(breakdown.calendar_node_pool));
  return breakdown;
}

// Writes the per-tier breakdown, the calendar collection counts and node-pool
// peak, the executed-event count and the best rate as CSV when THEMIS_HOTPATH_CSV
// names a path; CI uploads it as an artifact and checks the counts against
// pinned values and the entries-per-bucket bound.
void MaybeWriteTierCsv(const TierBreakdown& fig1) {
  const char* path = std::getenv("THEMIS_HOTPATH_CSV");
  if (path == nullptr || path[0] == '\0') {
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "tier,events_scheduled\nheap,%llu\nwheel,%llu\ncalendar,%llu\n",
               static_cast<unsigned long long>(fig1.heap),
               static_cast<unsigned long long>(fig1.wheel),
               static_cast<unsigned long long>(fig1.calendar));
  std::fprintf(f, "calendar_buckets_collected,%llu\ncalendar_entries_collected,%llu\n",
               static_cast<unsigned long long>(fig1.calendar_buckets_collected),
               static_cast<unsigned long long>(fig1.calendar_entries_collected));
  std::fprintf(f, "calendar_node_pool,%llu\n",
               static_cast<unsigned long long>(fig1.calendar_node_pool));
  std::fprintf(f, "fig1_events_executed,%llu\n",
               static_cast<unsigned long long>(fig1.events_executed));
  std::fprintf(f, "fig1_best_events_per_sec,%.0f\n", fig1.best_events_per_sec * 1e6);
  std::fclose(f);
}

}  // namespace
}  // namespace themis

int main() {
  using namespace themis;
  constexpr int kFlows = 256;
  constexpr uint64_t kBudget = 4'000'000;
  constexpr int kReps = 3;

  std::printf("churn workload (%d flows, %llu packet events):\n", kFlows,
              static_cast<unsigned long long>(kBudget));
  const double churn_rate = BestChurnRate(kFlows, kBudget, kReps);
  std::printf("churn best of %d: %.2f M packet-events/s\n\n", kReps, churn_rate);

  std::printf("Fig.1-scale collective (2 tors x 4 spines x 4 hosts, RandomSpray/NIC-SR/DCQCN):\n");
  const TierBreakdown fig1 = RunFig1Scale(kReps);
  std::printf("fig1 best of %d: %.2f M events/s, %llu events executed\n", kReps,
              fig1.best_events_per_sec, static_cast<unsigned long long>(fig1.events_executed));
  MaybeWriteTierCsv(fig1);
  return 0;
}
