// themis_cli — run any experiment the library supports from the command
// line, print a human summary, and optionally append a CSV row. This is the
// "swiss-army knife" a downstream user drives parameter studies with.
//
// For example (one command line, wrapped here):
//   $ ./build/examples/themis_cli --scheme=themis --collective=alltoall
//         --size-mb=16 --tors=8 --spines=8 --hosts-per-tor=8
//         --rate-gbps=400 --ti-us=55 --td-us=50 --groups=8 --csv=out.csv
//
// Run with --help for the full flag list.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "examples/flags.h"
#include "src/core/experiment.h"
#include "src/stats/report.h"
#include "src/stats/time_series.h"
#include "src/telemetry/telemetry.h"

namespace {

using namespace themis;

const char* CollectiveName(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllreduce:
      return "allreduce";
    case CollectiveKind::kAlltoall:
      return "alltoall";
    case CollectiveKind::kAllGather:
      return "allgather";
    case CollectiveKind::kReduceScatter:
      return "reducescatter";
    case CollectiveKind::kNeighborRing:
      return "ring";
    case CollectiveKind::kHalvingDoublingAllreduce:
      return "hd-allreduce";
    case CollectiveKind::kBroadcast:
      return "broadcast";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  // ExperimentConfig's defaults are the Fig. 5 16x16x16 fabric at 400 Gbps.
  ExperimentConfig config;
  config.dcqcn_ti = 55 * kMicrosecond;
  config.dcqcn_td = 50 * kMicrosecond;
  CollectiveKind collective = CollectiveKind::kAllreduce;
  uint64_t size_mb = 8;
  int group_count = 16;
  std::string csv_path;
  std::string trace_path;
  std::string counters_path;

  FlagTable flags("themis_cli — run a Themis packet-spraying experiment");
  AddExperimentFlags(&flags, &config, &trace_path, &counters_path);
  flags.Choice("--collective", &collective,
               {{"allreduce", CollectiveKind::kAllreduce},
                {"alltoall", CollectiveKind::kAlltoall},
                {"allgather", CollectiveKind::kAllGather},
                {"reducescatter", CollectiveKind::kReduceScatter},
                {"ring", CollectiveKind::kNeighborRing},
                {"hd", CollectiveKind::kHalvingDoublingAllreduce},
                {"broadcast", CollectiveKind::kBroadcast}},
               "collective every group runs");
  flags.Choice("--transport", &config.transport,
               {{"nic-sr", TransportKind::kNicSr},
                {"gbn", TransportKind::kGoBackN},
                {"ideal", TransportKind::kIdeal},
                {"irn", TransportKind::kIrn},
                {"multipath", TransportKind::kMultipath}},
               "RNIC loss recovery");
  // Below 2^44 MiB so that `<< 20` cannot wrap.
  flags.Number<uint64_t>("--size-mb", &size_mb, 1, UINT64_MAX >> 20, "MiB per collective");
  flags.Number("--groups", &group_count, 1, kMaxFabricDim,
               "communication groups, at most --hosts-per-tor");
  flags.Duration("--ti-us", &config.dcqcn_ti, kMicrosecond, 1, "DCQCN rate-increase timer TI");
  flags.Duration("--td-us", &config.dcqcn_td, kMicrosecond, 1,
                 "DCQCN rate-decrease interval TD");
  flags.Duration("--skew-ns", &config.fabric_delay_skew, kNanosecond, 0,
                 "per-spine delay skew");
  flags.Text("--csv", "PATH", &csv_path, "append one result row to a CSV file");
  flags.Parse(argc, argv);
  if (group_count > config.hosts_per_tor) {
    std::fprintf(stderr, "--groups must be <= --hosts-per-tor\n");
    return 1;
  }
  const long long rate_gbps = config.link_rate.bps() / Rate::Gbps(1).bps();
  const long long ti_us = config.dcqcn_ti / kMicrosecond;
  const long long td_us = config.dcqcn_td / kMicrosecond;

  Experiment exp(config);
  std::unique_ptr<Telemetry> telemetry;
  if (!trace_path.empty() || !counters_path.empty()) {
    telemetry = std::make_unique<Telemetry>(&exp.sim());
    exp.AttachTelemetry(telemetry.get());
    telemetry->StartSampling();
  }
  auto groups = exp.MakeCrossRackGroups(group_count);
  auto result = exp.RunCollective(collective, groups, size_mb << 20, 300 * kSecond);
  if (telemetry != nullptr) {
    telemetry->StopSampling();
    telemetry->sampler().SampleNow();  // closing row at end-of-run state
  }

  std::printf("scheme=%s collective=%s transport=%s fabric=%dx%dx%d rate=%lldG size=%lluMiB "
              "groups=%d DCQCN(TI=%lldus,TD=%lldus) seed=%llu\n",
              SchemeName(config.scheme), CollectiveName(collective),
              TransportKindName(config.transport), config.num_tors, config.num_spines,
              config.hosts_per_tor, rate_gbps, static_cast<unsigned long long>(size_mb),
              group_count, ti_us, td_us, static_cast<unsigned long long>(config.seed));
  if (!result.all_done) {
    std::printf("DID NOT FINISH before deadline\n");
    return 2;
  }

  const auto fct = ScalarSummary::Of(exp.FlowCompletionTimesMs());
  std::printf("tail completion:    %.3f ms\n", ToMilliseconds(result.tail_completion));
  std::printf("flow completion:    mean %.3f ms, max %.3f ms (%zu flows)\n", fct.mean, fct.max,
              fct.count);
  std::printf("retransmissions:    %.4f of sent bytes\n", exp.AggregateRetransmissionRatio());
  std::printf("NACKs at senders:   %llu\n",
              static_cast<unsigned long long>(exp.TotalNacksReceived()));
  std::printf("drops / timeouts:   %llu / %llu\n",
              static_cast<unsigned long long>(exp.TotalPortDrops()),
              static_cast<unsigned long long>(exp.TotalTimeouts()));
  std::printf("PFC pauses:         %llu\n",
              static_cast<unsigned long long>(exp.TotalPfcPauses()));
  std::printf("spray balance:      %.4f (Jain index across %d spines)\n",
              exp.SprayBalanceIndex(), config.num_spines);
  if (config.scheme == Scheme::kSprayReorder) {
    const ReorderHookStats r = exp.ReorderStats();
    std::printf("ToR reorder buffer:  %llu held, peak %lld B/flow, %lld B/switch, "
                "%llu timeout + %llu overflow flushes\n",
                static_cast<unsigned long long>(r.packets_held),
                static_cast<long long>(r.max_buffered_bytes),
                static_cast<long long>(r.max_total_buffered_bytes),
                static_cast<unsigned long long>(r.timeout_flushes),
                static_cast<unsigned long long>(r.overflow_flushes));
  }
  if (exp.themis() != nullptr) {
    const ThemisDStats t = exp.themis()->AggregateDStats();
    std::printf("Themis-D:           %llu NACKs seen, %llu blocked, %llu valid "
                "(%llu spurious / %llu genuine), %llu compensated\n",
                static_cast<unsigned long long>(t.nacks_seen),
                static_cast<unsigned long long>(t.nacks_blocked),
                static_cast<unsigned long long>(t.nacks_forwarded_valid),
                static_cast<unsigned long long>(t.nacks_forwarded_spurious),
                static_cast<unsigned long long>(t.nacks_forwarded_genuine),
                static_cast<unsigned long long>(t.compensated_nacks));
  }

  if (telemetry != nullptr) {
    std::printf("telemetry:          %llu events recorded, %llu evicted\n",
                static_cast<unsigned long long>(telemetry->trace().recorded()),
                static_cast<unsigned long long>(telemetry->trace().overwritten()));
    if (!trace_path.empty()) {
      if (telemetry->WriteTrace(trace_path)) {
        std::printf("wrote trace to %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
      }
    }
    if (!counters_path.empty()) {
      if (telemetry->WriteCounters(counters_path)) {
        std::printf("wrote counters to %s\n", counters_path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", counters_path.c_str());
      }
    }
  }

  if (!csv_path.empty()) {
    const bool fresh = !std::ifstream(csv_path).good();
    std::ofstream csv(csv_path, std::ios::app);
    if (fresh) {
      csv << "scheme,collective,transport,tors,spines,hosts_per_tor,rate_gbps,size_mb,groups,"
             "ti_us,td_us,seed,tail_ms,rtx_ratio,nacks,drops,balance\n";
    }
    csv << SchemeName(config.scheme) << ',' << CollectiveName(collective) << ','
        << TransportKindName(config.transport) << ',' << config.num_tors << ','
        << config.num_spines << ',' << config.hosts_per_tor << ',' << rate_gbps << ','
        << size_mb << ',' << group_count << ',' << ti_us << ',' << td_us << ','
        << config.seed << ',' << ToMilliseconds(result.tail_completion) << ','
        << exp.AggregateRetransmissionRatio() << ',' << exp.TotalNacksReceived() << ','
        << exp.TotalPortDrops() << ',' << exp.SprayBalanceIndex() << '\n';
    std::printf("appended row to %s\n", csv_path.c_str());
  }
  return 0;
}
