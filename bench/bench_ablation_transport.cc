// Ablation: reliable-transport generations under packet spraying
// (Sections 1-2 claims).
//
//   go-back-n — previous-generation RNICs (CX-4/5): OOO packets dropped,
//               catastrophic under spraying.
//   nic-sr    — current commodity RNICs: OOO buffered but NACKs spurious.
//   ideal     — OOO-tolerant oracle (upper bound).
//   nic-sr + Themis — the paper's system: commodity NIC behaviour with
//               in-network NACK filtering.
//
// Cases run in parallel on a SweepRunner pool; output order is fixed.

#include "bench/bench_common.h"
#include "src/experiment_service/grids.h"

namespace themis {
namespace {

using benchutil::CaseResult;

const std::vector<std::vector<int>> kRings = {{0, 4, 1, 5}, {2, 6, 3, 7}};

ExperimentConfig Config(TransportKind transport, Scheme scheme) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = scheme;
  config.transport = transport;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 200 * kMicrosecond;
  config.fabric_delay_skew = 200 * kNanosecond;
  return config;
}

struct TransportCase {
  TransportKind transport;
  Scheme scheme;
  const char* label;
};

CaseResult RunCase(const TransportCase& c, uint64_t bytes) {
  CaseResult out;
  out.name = std::string("Transport/") + c.label;

  Experiment exp(Config(c.transport, c.scheme));
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kRings, bytes, 120 * kSecond);
  if (!result.all_done) {
    out.error = "transfer did not finish";
    return out;
  }

  out.ok = true;
  out.sim_seconds = ToSeconds(result.tail_completion);
  out.row.config = "spraying-ring";
  out.row.scheme = c.label;
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
  const std::vector<TransportCase> cases = {
      {TransportKind::kGoBackN, Scheme::kRandomSpray, "go-back-n (CX-4/5)"},
      {TransportKind::kNicSr, Scheme::kRandomSpray, "nic-sr (CX-6/7)"},
      {TransportKind::kIrn, Scheme::kRandomSpray, "irn-style NIC"},
      {TransportKind::kMultipath, Scheme::kRandomSpray, "multipath NIC (MPRDMA-like)"},
      {TransportKind::kIdeal, Scheme::kRandomSpray, "ideal oracle"},
      {TransportKind::kNicSr, Scheme::kThemis, "nic-sr + Themis"},
      {TransportKind::kNicSr, Scheme::kFlowlet, "nic-sr + flowlet"},
      {TransportKind::kNicSr, Scheme::kSprayReorder, "nic-sr + ToR reordering"},
  };

  // Before the pool starts, so a malformed THEMIS_BENCH_MB exits only once.
  const uint64_t bytes = SweepMessageBytes(8);
  SweepRunner runner;
  std::printf("ablation_transport: %zu cases on %d threads\n", cases.size(), runner.threads());
  auto results = runner.Map(cases, [bytes](const TransportCase& c) { return RunCase(c, bytes); });
  const int failures = benchutil::EmitCaseResults(results);
  benchutil::PrintSummary("Transport-generation ablation under packet spraying");
  return failures == 0 ? 0 : 1;
}
