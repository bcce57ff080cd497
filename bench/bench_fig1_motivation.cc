// Figure 1 (motivation): the cost of naively combining packet spraying with
// commodity NIC-SR RNICs.
//
// Topology (Fig. 1a): two racks of four hosts, four spines, 100 Gbps links.
// Two ring groups arranged so that every ring hop crosses racks; each node
// sends one large message to its ring successor (paper: 100 MB; default
// here scaled, THEMIS_FULL_SCALE=1 restores 100 MB+). Random packet
// spraying, NIC-SR, DCQCN.
//
//  * Fig. 1b — retransmission ratio over time (paper: ~16% average, with
//    ZERO actual packet loss).
//  * Fig. 1c — sending rate of one flow over time (paper: ~86% of the
//    100 Gbps line rate due to NACK-triggered rate cuts).
//  * Fig. 1d — average flow throughput, NIC-SR vs ideal OOO-tolerant
//    transport (paper: 68.09 vs 95.43 Gbps, i.e. ~71%).
//
// The paper does not state Fig. 1's DCQCN parameters; we use
// (TI=10us, TD=200us), which lands the simulator in the same operating
// regime (high rate + frequent spurious retransmissions). See
// EXPERIMENTS.md for the sensitivity discussion.

#include "bench/bench_common.h"
#include "src/experiment_service/grids.h"
#include "src/stats/samplers.h"

namespace themis {
namespace {

using benchutil::ResultRow;
using benchutil::Rows;

const std::vector<std::vector<int>> kRings = {{0, 4, 1, 5}, {2, 6, 3, 7}};

ExperimentConfig MotivationConfig(TransportKind transport) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kRandomSpray;
  config.transport = transport;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 200 * kMicrosecond;
  config.fabric_delay_skew = 200 * kNanosecond;
  return config;
}

double AverageFlowGoodputGbps(Experiment& exp) {
  double sum = 0.0;
  int count = 0;
  for (int h = 0; h < exp.host_count(); ++h) {
    for (const SenderQp* qp : exp.host(h)->sender_qps()) {
      const double duration =
          ToSeconds(qp->stats().last_completion_time - qp->stats().first_post_time);
      if (duration <= 0) {
        continue;
      }
      sum += static_cast<double>(qp->stats().bytes_posted) * 8.0 / duration / 1e9;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

// Fig. 1b + 1c: run NIC-SR under spraying with time-series sampling.
void BM_Fig1bc_NicSrUnderSpraying(benchmark::State& state) {
  const uint64_t bytes = SweepMessageBytes(8);
  for (auto _ : state) {
    Experiment exp(MotivationConfig(TransportKind::kNicSr));

    // The observed flow: ring-group 0's first hop (host 0 -> host 4),
    // mirroring the paper's "flow from node 0 to 2".
    SenderQp* observed = exp.connections().GetChannel(0, 4).tx;
    const TimePs sample_period = 20 * kMicrosecond;
    RateSampler rate_sampler(&exp.sim(), sample_period,
                             [observed] { return observed->stats().data_bytes_sent; });
    RateSampler rtx_sampler(&exp.sim(), sample_period,
                            [observed] { return observed->stats().rtx_bytes; });

    auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kRings, bytes, 60 * kSecond);
    rate_sampler.Stop();
    rtx_sampler.Stop();
    state.SetIterationTime(ToSeconds(result.tail_completion));
    if (!result.all_done) {
      state.SkipWithError("ring traffic did not finish");
      return;
    }

    state.counters["rtx_ratio_avg"] = exp.AggregateRetransmissionRatio();
    state.counters["nacks"] = static_cast<double>(exp.TotalNacksReceived());
    state.counters["drops"] = static_cast<double>(exp.TotalPortDrops());
    state.counters["rate_avg_gbps"] = rate_sampler.series().Mean();

    // Fig. 1b/1c tables: windowed retransmission ratio and sending rate.
    Table series({"t_us", "rate_gbps", "rtx_ratio"});
    const auto& rate = rate_sampler.series().samples();
    const auto& rtx = rtx_sampler.series().samples();
    const size_t n = std::min(rate.size(), rtx.size());
    const size_t stride = std::max<size_t>(1, n / 16);  // print ~16 rows
    for (size_t i = 0; i < n; i += stride) {
      const double ratio = rate[i].value <= 0.0 ? 0.0 : rtx[i].value / rate[i].value;
      series.AddRow({FormatDouble(ToMicroseconds(rate[i].time), 0),
                     FormatDouble(rate[i].value, 1), FormatDouble(ratio, 3)});
    }
    std::printf("\n=== Fig 1b/1c: flow 0->4 under random spraying + NIC-SR ===\n");
    series.Print();
    std::printf("average sending rate: %.1f Gbps (line rate 100, paper: ~86)\n",
                rate_sampler.series().Mean());
    std::printf("average retransmission ratio (all flows): %.3f (paper: ~0.16)\n",
                exp.AggregateRetransmissionRatio());
    std::printf("actual packet loss: %llu drops (paper: zero loss)\n\n",
                static_cast<unsigned long long>(exp.TotalPortDrops()));
  }
}

// Fig. 1d: average flow throughput, NIC-SR vs ideal transport.
void BM_Fig1d_Throughput(benchmark::State& state, TransportKind transport) {
  const uint64_t bytes = SweepMessageBytes(8);
  for (auto _ : state) {
    Experiment exp(MotivationConfig(transport));
    auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kRings, bytes, 60 * kSecond);
    state.SetIterationTime(ToSeconds(result.tail_completion));
    if (!result.all_done) {
      state.SkipWithError("ring traffic did not finish");
      return;
    }
    const double goodput = AverageFlowGoodputGbps(exp);
    state.counters["avg_flow_goodput_gbps"] = goodput;

    ResultRow row;
    row.config = "Fig1d";
    row.scheme = TransportKindName(transport);
    row.completion_ms = ToMilliseconds(result.tail_completion);
    row.rtx_ratio = exp.AggregateRetransmissionRatio();
    row.nacks_to_sender = exp.TotalNacksReceived();
    row.drops = exp.TotalPortDrops();
    Rows().push_back(row);
    std::printf("Fig1d %-9s: average flow throughput %.2f Gbps (paper: %s)\n",
                TransportKindName(transport), goodput,
                transport == TransportKind::kNicSr ? "68.09" : "95.43 (ideal)");
  }
}

}  // namespace
}  // namespace themis

int main(int argc, char** argv) {
  using namespace themis;
  benchmark::RegisterBenchmark("Fig1bc/RandomSpray+NIC-SR", &BM_Fig1bc_NicSrUnderSpraying)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Fig1d/NIC-SR",
                               [](benchmark::State& s) {
                                 BM_Fig1d_Throughput(s, TransportKind::kNicSr);
                               })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Fig1d/Ideal",
                               [](benchmark::State& s) {
                                 BM_Fig1d_Throughput(s, TransportKind::kIdeal);
                               })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  benchutil::PrintSummary("Fig. 1 motivation experiment");
  return 0;
}
