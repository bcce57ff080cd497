// workload_cli — run an open-loop FCT workload (src/workload) from the
// command line: pick a traffic pattern, a flow-size distribution (builtin or
// a CDF file), a load level, and a load-balancing scheme; get the slowdown
// percentiles and, optionally, a per-flow CSV.
//
//   $ ./build/examples/workload_cli --pattern=incastmix --cdf=websearch
//         --load=0.6 --scheme=themis --spray=tor --window-us=1000
//         --tors=4 --spines=4 --hosts-per-tor=4 --rate-gbps=100 --csv=flows.csv
//   (one line in the shell; split here for readability)
//
// Run with --help for the full flag list.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "examples/flags.h"
#include "src/stats/report.h"
#include "src/telemetry/trace.h"
#include "src/workload/flow_driver.h"

namespace {

using namespace themis;

// --categories: a comma list of TraceCategoryName()s.
bool ParseCategoryMask(const std::string& spec, uint32_t* mask, std::string* reason) {
  *mask = 0;
  for (size_t pos = 0; pos <= spec.size();) {
    const size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    uint32_t bit = 0;
    for (uint32_t c = 0; c < static_cast<uint32_t>(TraceCategory::kCount); ++c) {
      if (item == TraceCategoryName(static_cast<TraceCategory>(c))) {
        bit = TraceCategoryBit(static_cast<TraceCategory>(c));
      }
    }
    if (bit == 0 && !item.empty()) {
      *reason = "unknown trace category '" + item + "'";
      return false;
    }
    *mask |= bit;
    pos = comma + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.num_tors = 4;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  WorkloadSpec workload;
  workload.pattern = TrafficPattern::kIncastMix;
  workload.window = 1000 * kMicrosecond;
  workload.incast_fanin = 8;
  FctTelemetryOptions telemetry;
  FlowSizeCdf file_cdf;
  const FlowSizeCdf* cdf = &FlowSizeCdf::WebSearch();
  std::string scenario_name;
  std::string csv_path;

  FlagTable flags("workload_cli — run an open-loop FCT workload and report slowdown");
  flags.Choice("--pattern", &workload.pattern,
               {{"uniform", TrafficPattern::kUniform},
                {"permutation", TrafficPattern::kPermutation},
                {"incast", TrafficPattern::kIncast},
                {"incastmix", TrafficPattern::kIncastMix}},
               "traffic matrix");
  flags.Value("--cdf", "websearch|hadoop|alistorage|PATH",
              "flow sizes: a builtin or a CDF file (examples/cdfs/)", cdf->name(),
              [&](const std::string& value, std::string* reason) {
                for (const FlowSizeCdf* builtin :
                     {&FlowSizeCdf::WebSearch(), &FlowSizeCdf::Hadoop(),
                      &FlowSizeCdf::AliStorage()}) {
                  if (value == builtin->name()) {
                    cdf = builtin;
                    return true;
                  }
                }
                cdf = &file_cdf;
                return FlowSizeCdf::LoadFile(value, &file_cdf, reason);
              });
  flags.Number("--load", &workload.load, 0.0, 1.5,
               "offered load as a fraction of edge bandwidth, in (0, 1.5)");
  AddExperimentFlags(&flags, &config, &telemetry.trace_path, &telemetry.counters_path);
  flags.Choice("--spray", &config.themis_spray_mode,
               {{"tor", SprayMode::kTorEgress}, {"sport", SprayMode::kSportRewrite}},
               "Themis spray point: ToR egress (D) or sport rewrite (S)");
  flags.Duration("--window-us", &workload.window, kMicrosecond, 1, "arrival window");
  flags.Number("--fanin", &workload.incast_fanin, 1, INT_MAX, "incast fan-in");
  flags.Number("--incast-fraction", &workload.incast_fraction, 0.0, 1.0,
               "incastmix: share of load carried by bursts");
  flags.Choice("--topo", &config.fabric,
               {{"leafspine", FabricKind::kLeafSpine},
                {"leaf-spine", FabricKind::kLeafSpine},
                {"fattree", FabricKind::kFatTree},
                {"fat-tree", FabricKind::kFatTree}},
               "fabric kind");
  // k = 128 is already 524,288 hosts.
  flags.Number("--fat-tree-k", &config.fat_tree_k, 2, 128,
               "fat-tree arity, even (8 -> 128 hosts, 16 -> 1024 hosts)");
  flags.Choice("--traffic-model", &config.traffic_model,
               {{"none", TrafficModelKind::kNone}, {"fluid", TrafficModelKind::kFluid}},
               "hybrid background model");
  flags.Number("--background-load", &config.background_load, 0.0, 1.0,
               "modelled background load per fabric port; > 0 implies\n"
               "--traffic-model=fluid");
  flags.Number("--traffic-burstiness", &config.traffic_burstiness, 0.0, 1.0,
               "AR(1) modulation amplitude");
  flags.Duration("--traffic-epoch-us", &config.traffic_epoch, kMicrosecond, 1,
                 "background epoch period");
  flags.Value("--scenario", "NAME|PATH",
              "fault-injection campaign: a preset (tor-uplink-flap,\n"
              "gray-spine) or a .scn script file (examples/scenarios/)",
              "", [&](const std::string& value, std::string* reason) {
                scenario_name = value;
                return ScenarioPreset(value, &config.scenario) ||
                       LoadScenarioFile(value, &config.scenario, reason);
              });
  flags.Number<size_t>("--max-flows", &workload.max_flows, 0, SIZE_MAX,
                       "truncate the generated flow list (0 = no cap)");
  // 2^24 entries per ToR is far past the paper's §4 provisioning, and the
  // table's 2x bucket array cannot overflow.
  flags.Number<size_t>("--themis-flow-capacity", &config.themis_flow_capacity, 0, size_t{1} << 24,
                       "bound each ToR's Themis-D flow table to N register-array\n"
                       "entries (0 = unbounded, the paper's §4 provisioned case)");
  flags.Choice("--themis-aging", &config.themis_aging,
               {{"none", EvictionPolicy::kNone},
                {"lru", EvictionPolicy::kLruClock},
                {"idle", EvictionPolicy::kIdleTimeout}},
               "reclamation policy for a bounded table\n"
               "(none: a full table refuses new flows)");
  flags.Duration("--themis-idle-timeout-us", &config.themis_idle_timeout, kMicrosecond, 0,
                 "idle aging threshold for --themis-aging=idle");
  flags.Value("--categories", "port,rnic,...",
              "trace categories --trace records, a comma list of\n"
              "port,rnic,themis,cc,traffic,scenario",
              "all", [&telemetry](const std::string& value, std::string* reason) {
                return ParseCategoryMask(value, &telemetry.config.category_mask, reason);
              });
  flags.Text("--csv", "PATH", &csv_path, "write one row per flow (sizes, FCT, slowdown)");
  flags.Parse(argc, argv);

  if (workload.load <= 0.0 || workload.load >= 1.5) {
    std::fprintf(stderr, "--load must be in (0, 1.5)\n");
    return 1;
  }
  if (config.fabric == FabricKind::kFatTree && config.fat_tree_k % 2 != 0) {
    std::fprintf(stderr, "--fat-tree-k must be even and >= 2\n");
    return 1;
  }
  if (config.background_load > 0.0 && config.traffic_model == TrafficModelKind::kNone) {
    config.traffic_model = TrafficModelKind::kFluid;  // load implies the model
  }
  workload.seed = config.seed;
  telemetry.enabled = !telemetry.trace_path.empty() || !telemetry.counters_path.empty();
  if (!kTraceCompiledIn && !telemetry.trace_path.empty()) {
    std::fprintf(stderr,
                 "workload_cli: built with THEMIS_TRACE=OFF; the trace will be empty "
                 "(counters still work)\n");
  }

  const TimePs deadline = workload.window * 40;
  const FctWorkloadResult result = RunFctWorkload(config, workload, *cdf, deadline, telemetry);
  if (!result.scenario_error.empty()) {
    std::fprintf(stderr, "--scenario='%s': %s\n", scenario_name.c_str(),
                 result.scenario_error.c_str());
    return 1;
  }
  const long long rate_gbps = config.link_rate.bps() / Rate::Gbps(1).bps();
  const long long window_us = workload.window / kMicrosecond;

  if (config.fabric == FabricKind::kFatTree) {
    std::printf("pattern=%s cdf=%s (mean %.0f B) load=%.2f scheme=%s fabric=fat-tree(k=%d) "
                "rate=%lldG window=%lldus seed=%llu\n",
                TrafficPatternName(workload.pattern), cdf->name().c_str(), cdf->MeanBytes(),
                workload.load, SchemeName(config.scheme), config.fat_tree_k, rate_gbps,
                window_us, static_cast<unsigned long long>(config.seed));
  } else {
    std::printf("pattern=%s cdf=%s (mean %.0f B) load=%.2f scheme=%s fabric=%dx%dx%d "
                "rate=%lldG window=%lldus seed=%llu\n",
                TrafficPatternName(workload.pattern), cdf->name().c_str(), cdf->MeanBytes(),
                workload.load, SchemeName(config.scheme), config.num_tors, config.num_spines,
                config.hosts_per_tor, rate_gbps, window_us,
                static_cast<unsigned long long>(config.seed));
  }
  if (config.traffic_model != TrafficModelKind::kNone) {
    std::printf("background:         %s model, load %.2f, burstiness %.2f, epoch %lld us\n",
                TrafficModelKindName(config.traffic_model), config.background_load,
                config.traffic_burstiness,
                static_cast<long long>(config.traffic_epoch / kMicrosecond));
  }
  std::printf("flows:              %zu generated, %zu completed\n", result.flows_total,
              result.flows_completed);
  if (result.flows_completed == 0) {
    std::printf("NO FLOW FINISHED before the deadline\n");
    return 2;
  }
  std::printf("slowdown:           p50 %.2f  p90 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
              result.slowdown.p50, result.slowdown.p90, result.slowdown.p95,
              result.slowdown.p99, result.slowdown.max);
  std::printf("goodput:            %.2f Gbps (makespan %.3f ms)\n", result.goodput_gbps,
              ToMilliseconds(result.makespan));
  std::printf("retransmissions:    %.4f of sent bytes\n", result.rtx_ratio);
  std::printf("drops/NACKs/timeouts: %llu / %llu / %llu, PFC pauses %llu\n",
              static_cast<unsigned long long>(result.drops),
              static_cast<unsigned long long>(result.nacks),
              static_cast<unsigned long long>(result.timeouts),
              static_cast<unsigned long long>(result.pfc_pauses));
  if (config.scheme == Scheme::kThemis) {
    std::printf("Themis-D:           %llu NACKs seen, %llu blocked, %llu valid "
                "(%llu spurious / %llu genuine), %llu unmatched, %llu compensated\n",
                static_cast<unsigned long long>(result.themis.nacks_seen),
                static_cast<unsigned long long>(result.themis.nacks_blocked),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_valid),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_spurious),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_genuine),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_unmatched),
                static_cast<unsigned long long>(result.themis.compensated_nacks));
    if (config.themis_flow_capacity > 0) {
      std::printf("flow table:         cap %llu/ToR (%s), %llu evicted, %llu aged out, "
                  "%llu rejected, %llu grace + %llu compensations resolved at eviction\n",
                  static_cast<unsigned long long>(config.themis_flow_capacity),
                  EvictionPolicyName(config.themis_aging),
                  static_cast<unsigned long long>(result.themis.flows_evicted),
                  static_cast<unsigned long long>(result.themis.flows_aged_out),
                  static_cast<unsigned long long>(result.themis.flows_rejected),
                  static_cast<unsigned long long>(result.themis.grace_evicted),
                  static_cast<unsigned long long>(result.themis.compensations_evicted));
    }
  }
  if (!result.scenario_faults.empty()) {
    std::printf("scenario:           %zu fault(s) injected (%s)\n",
                result.scenario_faults.size(), scenario_name.c_str());
    for (size_t i = 0; i < result.scenario_faults.size(); ++i) {
      const FaultRecord& f = result.scenario_faults[i];
      const TimePs recovery = f.RecoveryTimePs();
      std::printf("  fault %zu: %-7s applied %.1f us, cleared %s, first drop %s, "
                  "recovery %s, %llu drops, %llu victim flow(s)\n",
                  i, FaultKindName(f.kind), ToMicroseconds(f.applied),
                  f.cleared >= 0 ? (FormatDouble(ToMicroseconds(f.cleared), 1) + " us").c_str()
                                 : "never",
                  f.first_drop >= 0
                      ? (FormatDouble(ToMicroseconds(f.first_drop), 1) + " us").c_str()
                      : "none",
                  recovery >= 0 ? (FormatDouble(ToMicroseconds(recovery), 1) + " us").c_str()
                                : "n/a",
                  static_cast<unsigned long long>(f.drops_during),
                  static_cast<unsigned long long>(f.victim_flows));
    }
  }
  if (telemetry.enabled) {
    std::printf("telemetry:          %llu trace events recorded (%llu evicted by ring wrap)\n",
                static_cast<unsigned long long>(result.trace_events),
                static_cast<unsigned long long>(result.trace_overwritten));
    if (!telemetry.trace_path.empty()) {
      std::printf("wrote Chrome trace to %s\n", telemetry.trace_path.c_str());
    }
    if (!telemetry.counters_path.empty()) {
      std::printf("wrote counters CSV to %s\n", telemetry.counters_path.c_str());
    }
  }

  if (!csv_path.empty()) {
    Table table({"flow", "src", "dst", "bytes", "start_us", "fct_us", "ideal_us", "slowdown"});
    for (const FlowRecord& r : result.records) {
      if (!r.completed()) {
        continue;
      }
      table.AddRow({std::to_string(r.spec.index), std::to_string(r.spec.src),
                    std::to_string(r.spec.dst), std::to_string(r.spec.bytes),
                    FormatDouble(static_cast<double>(r.spec.start_time) / kMicrosecond, 3),
                    FormatDouble(static_cast<double>(r.Fct()) / kMicrosecond, 3),
                    FormatDouble(static_cast<double>(r.ideal_fct) / kMicrosecond, 3),
                    FormatDouble(r.Slowdown(), 3)});
    }
    if (!table.WriteCsv(csv_path)) {
      std::fprintf(stderr, "could not write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote per-flow CSV to %s\n", csv_path.c_str());
  }
  return 0;
}
