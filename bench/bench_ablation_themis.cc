// Ablations of Themis's design choices (DESIGN.md experiment index):
//
//  * NACK compensation on/off under genuine packet loss (Section 3.4):
//    without compensation, a blocked NACK for a truly lost packet costs a
//    full retransmission timeout.
//  * PSN-queue capacity factor F (Section 4): undersized rings overflow and
//    force fail-open forwards.
//  * Truncated (1-byte) vs full PSN queue entries (Section 4).
//  * Spray mode: ToR egress choice (2-tier) vs PathMap sport rewrite
//    (multi-tier, Fig. 3).
//
// Each case is an independent simulation; the whole grid runs on a
// SweepRunner pool and is printed in registration order.

#include "bench/bench_common.h"
#include "src/experiment_service/grids.h"

namespace themis {
namespace {

using benchutil::CaseResult;

const std::vector<std::vector<int>> kRings = {{0, 4, 1, 5}, {2, 6, 3, 7}};

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kThemis;
  config.transport = TransportKind::kNicSr;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 200 * kMicrosecond;
  config.fabric_delay_skew = 200 * kNanosecond;
  return config;
}

// Blackholes spine0's downlink to rack 1 for `window` starting at 30 us,
// producing genuine loss that only compensation (or RTO) can repair.
void InjectLoss(Experiment& exp, TimePs window) {
  Switch* spine0 = exp.topology().switches[exp.topology().tors.size()];
  exp.sim().Schedule(30 * kMicrosecond, [spine0] { spine0->port(1)->set_failed(true); });
  exp.sim().Schedule(30 * kMicrosecond + window,
                     [spine0] { spine0->port(1)->set_failed(false); });
}

struct AblationCase {
  std::string name;
  ExperimentConfig config;
  bool inject_loss = false;
};

CaseResult RunCase(const AblationCase& c, uint64_t bytes) {
  CaseResult out;
  out.name = c.name;

  Experiment exp(c.config);
  if (c.inject_loss) {
    InjectLoss(exp, 10 * kMicrosecond);
  }
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kRings, bytes, 120 * kSecond);
  if (!result.all_done) {
    out.error = "transfer did not finish";
    return out;
  }

  const ThemisDStats themis_stats =
      exp.themis() != nullptr ? exp.themis()->AggregateDStats() : ThemisDStats{};
  out.ok = true;
  out.sim_seconds = ToSeconds(result.tail_completion);
  out.row.config = c.inject_loss ? "with-loss" : "lossless";
  out.row.scheme = c.name;
  out.row.completion_ms = ToMilliseconds(result.tail_completion);
  out.row.rtx_ratio = exp.AggregateRetransmissionRatio();
  out.row.nacks_to_sender = exp.TotalNacksReceived();
  out.row.nacks_blocked = themis_stats.nacks_blocked;
  out.row.drops = exp.TotalPortDrops();
  return out;
}

}  // namespace
}  // namespace themis

int main() {
  using namespace themis;
  std::vector<AblationCase> cases;

  // Compensation on/off, with and without genuine loss.
  {
    ExperimentConfig with_comp = BaseConfig();
    ExperimentConfig no_comp = BaseConfig();
    no_comp.themis_compensation = false;
    cases.push_back({"Compensation/on/lossless", with_comp, /*inject_loss=*/false});
    cases.push_back({"Compensation/off/lossless", no_comp, /*inject_loss=*/false});
    cases.push_back({"Compensation/on/loss", with_comp, /*inject_loss=*/true});
    cases.push_back({"Compensation/off/loss", no_comp, /*inject_loss=*/true});
  }

  // PSN-queue expansion factor F.
  for (double f : {0.25, 0.5, 1.0, 1.5, 3.0}) {
    ExperimentConfig config = BaseConfig();
    config.themis_queue_expansion = f;
    cases.push_back({"QueueFactor/F=" + FormatDouble(f, 2), config, /*inject_loss=*/false});
  }

  // Truncated vs full PSN-queue entries.
  {
    ExperimentConfig truncated = BaseConfig();
    ExperimentConfig full = BaseConfig();
    full.themis_truncate_queue_entries = false;
    cases.push_back({"QueueEncoding/truncated-1B", truncated, /*inject_loss=*/false});
    cases.push_back({"QueueEncoding/full-3B", full, /*inject_loss=*/false});
  }

  // Spray mode: 2-tier ToR egress vs multi-tier sport rewrite.
  {
    ExperimentConfig tor_egress = BaseConfig();
    ExperimentConfig sport = BaseConfig();
    sport.themis_spray_mode = SprayMode::kSportRewrite;
    cases.push_back({"SprayMode/tor-egress", tor_egress, /*inject_loss=*/false});
    cases.push_back({"SprayMode/sport-rewrite", sport, /*inject_loss=*/false});
  }

  // Before the pool starts, so a malformed THEMIS_BENCH_MB exits only once.
  const uint64_t bytes = SweepMessageBytes(8);
  SweepRunner runner;
  std::printf("ablation_themis: %zu cases on %d threads\n", cases.size(), runner.threads());
  auto results = runner.Map(cases, [bytes](const AblationCase& c) { return RunCase(c, bytes); });
  const int failures = benchutil::EmitCaseResults(results);
  benchutil::PrintSummary("Themis design-choice ablations");
  return failures == 0 ? 0 : 1;
}
