// Ablation: sensitivity to multi-path delay variation.
//
// The paper attributes invalid NACKs to "multi-path delay variation". This
// sweep varies the per-spine propagation skew from 0 (perfectly symmetric
// fabric, reordering only from queueing) to 400 ns and shows:
//   * naive spraying + NIC-SR degrades steadily as skew grows (more OOO ->
//     more spurious NACKs -> more retransmissions and rate cuts);
//   * Themis stays flat — delay variation is exactly the signal Eq. 3
//     classifies away;
//   * adaptive routing sits in between (it reorders by queue-chasing even
//     at zero skew).
//
// The 15-point grid runs in parallel on a SweepRunner pool.

#include "bench/bench_common.h"
#include "src/experiment_service/grids.h"

namespace themis {
namespace {

using benchutil::CaseResult;

const std::vector<std::vector<int>> kRings = {{0, 4, 1, 5}, {2, 6, 3, 7}};

struct SkewCase {
  Scheme scheme;
  TimePs skew;
};

CaseResult RunCase(const SkewCase& c, uint64_t bytes) {
  CaseResult out;
  out.name = std::string("Skew/") + SchemeName(c.scheme) + "/" +
             std::to_string(c.skew / kNanosecond) + "ns";

  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = c.scheme;
  config.transport = TransportKind::kNicSr;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 200 * kMicrosecond;
  config.fabric_delay_skew = c.skew;
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kRings, bytes, 120 * kSecond);
  if (!result.all_done) {
    out.error = "transfer did not finish";
    return out;
  }

  out.ok = true;
  out.sim_seconds = ToSeconds(result.tail_completion);
  out.row.config = "skew=" + std::to_string(c.skew / kNanosecond) + "ns";
  out.row.scheme = SchemeName(c.scheme);
  out.row.completion_ms = ToMilliseconds(result.tail_completion);
  out.row.rtx_ratio = exp.AggregateRetransmissionRatio();
  out.row.nacks_to_sender = exp.TotalNacksReceived();
  out.row.nacks_blocked =
      exp.themis() != nullptr ? exp.themis()->AggregateDStats().nacks_blocked : 0;
  out.row.drops = exp.TotalPortDrops();
  return out;
}

}  // namespace
}  // namespace themis

int main() {
  using namespace themis;
  std::vector<SkewCase> cases;
  for (TimePs skew : {0L, 50L, 100L, 200L, 400L}) {
    for (Scheme scheme : {Scheme::kRandomSpray, Scheme::kAdaptiveRouting, Scheme::kThemis}) {
      cases.push_back(SkewCase{scheme, skew * kNanosecond});
    }
  }

  // Before the pool starts, so a malformed THEMIS_BENCH_MB exits only once.
  const uint64_t bytes = SweepMessageBytes(8);
  SweepRunner runner;
  std::printf("ablation_skew: %zu cases on %d threads\n", cases.size(), runner.threads());
  auto results = runner.Map(cases, [bytes](const SkewCase& c) { return RunCase(c, bytes); });
  const int failures = benchutil::EmitCaseResults(results);
  benchutil::PrintSummary("Multi-path delay-variation sensitivity");
  return failures == 0 ? 0 : 1;
}
