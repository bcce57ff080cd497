// simbench: the single-threaded program behind the repository benchmark.
//
// One process runs one pass of one workload through the public API
// (Experiment, GenerateFlows/FlowDriver, MakeCollectives, Simulator::RunUntil)
// and prints one JSON object on stdout. run.py launches one process per pass,
// so a timed pass's peak RSS is that of a process that ran only this
// workload, and compares every pass's fingerprint against the pins.
//
//   simbench --workload NAME --seed N --mode MODE [--scale full|tiny]
//
// Modes:
//   timed      build + post + run + collect once, no sink attached: wall and
//              set-up host seconds, peak RSS and the simulated fingerprint.
//   setup      build + post once, never run: the set-up time alone.
//   traced     the timed pass with steady-clock spans around each call the
//              program makes, every switch's data LB wrapped in a timing
//              decorator, and exact per-layer counts from public stats.
//   telemetry  the timed pass with a Telemetry bundle attached (all
//              categories, in memory, no sampling timer).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/lb/policies.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set of this process image in MiB (VmHWM, which exec resets,
// so the launcher's own footprint is not counted). -1 if unreadable.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1.0;
  }
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : static_cast<double>(kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadDef {
  ExperimentConfig config;
  bool collective = false;
  // Collectives: explicit groups, or `cross_rack_groups` from the fabric.
  CollectiveKind kind = CollectiveKind::kAllreduce;
  std::vector<std::vector<int>> groups;
  int cross_rack_groups = 0;
  uint64_t bytes = 0;
  // Flow workloads: the arrival-ordered prefix of the generated flows whose
  // bytes first reach `byte_budget`, so every seed offers the same work.
  WorkloadSpec flows;
  uint64_t byte_budget = 0;
  TimePs deadline = kTimeInfinity;
};

// Fig. 1 fabric: 2 ToR x 4 spine x 4 hosts at 100 G, RandomSpray + NIC-SR +
// DCQCN (TI 10 us, TD 200 us), 200 ns spine skew, two neighbour rings.
WorkloadDef Fig1Spray(uint64_t seed, bool tiny) {
  WorkloadDef def;
  ExperimentConfig& c = def.config;
  c.seed = seed;
  c.num_tors = 2;
  c.num_spines = 4;
  c.hosts_per_tor = 4;
  c.link_rate = Rate::Gbps(100);
  c.scheme = Scheme::kRandomSpray;
  c.transport = TransportKind::kNicSr;
  c.cc = CcKind::kDcqcn;
  c.dcqcn_ti = 10 * kMicrosecond;
  c.dcqcn_td = 200 * kMicrosecond;
  c.fabric_delay_skew = 200 * kNanosecond;
  def.collective = true;
  def.kind = CollectiveKind::kNeighborRing;
  def.groups = {{0, 4, 1, 5}, {2, 6, 3, 7}};
  def.bytes = (tiny ? 1ull : 64ull) << 20;
  def.deadline = 60 * kSecond;
  return def;
}

// Fig. 5 fabric (ExperimentConfig defaults): 16x16 leaf-spine, 256 hosts at
// 400 G, Themis with PSN spray at ToR egress + Themis-D, default DCQCN, ring
// allreduce over 16 cross-rack groups.
WorkloadDef Fig5AllreduceThemis(uint64_t seed, bool tiny) {
  WorkloadDef def;
  def.config.seed = seed;
  def.config.scheme = Scheme::kThemis;
  def.config.themis_spray_mode = SprayMode::kTorEgress;
  def.collective = true;
  def.kind = CollectiveKind::kAllreduce;
  def.cross_rack_groups = 16;
  def.bytes = tiny ? 256ull << 10 : 4ull << 20;
  def.deadline = 1 * kSecond;
  return def;
}

// The Themis-D row of the hybrid-fidelity scale sweep: k=16 fat-tree (1024
// hosts) at 400 G under fluid background 0.4, open-loop Poisson uniform
// AliStorage arrivals at load 0.3 over 100 us, cut at the first 520 MB of
// arrivals (about 1000 flows): under a fixed flow count the offered bytes,
// and host time with them, vary by a tenth across seeds.
WorkloadDef FctFatTreeThemisD(uint64_t seed, bool tiny) {
  WorkloadDef def;
  ExperimentConfig& c = def.config;
  c.seed = seed;
  c.fabric = FabricKind::kFatTree;
  c.fat_tree_k = 16;
  c.link_rate = Rate::Gbps(400);
  c.scheme = Scheme::kThemis;
  c.themis_spray_mode = SprayMode::kTorEgress;
  c.traffic_model = TrafficModelKind::kFluid;
  c.background_load = 0.4;
  def.flows.pattern = TrafficPattern::kUniform;
  def.flows.load = 0.3;
  def.flows.window = 100 * kMicrosecond;
  def.flows.seed = seed;
  def.flows.max_flows = 4000;  // safety valve; the byte budget ends the list first
  def.byte_budget = tiny ? 26'000'000 : 520'000'000;
  def.deadline = def.flows.window * 1000;
  return def;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, WorkloadDef* def) {
  if (name == "fig1-spray") {
    *def = Fig1Spray(seed, tiny);
  } else if (name == "fig5-allreduce-themis") {
    *def = Fig5AllreduceThemis(seed, tiny);
  } else if (name == "fct-fattree-themisd") {
    *def = FctFatTreeThemisD(seed, tiny);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One instance of a workload, driven phase by phase so each call into the
// library can be timed on its own.

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Fingerprint.
  uint64_t events = 0;
  TimePs sim_time_ps = 0;
  TimePs tail_ps = 0;  // collectives
  uint64_t flows_completed = 0;  // flow workloads
  double slowdown_p50 = 0.0;
  double slowdown_p99 = 0.0;
  uint64_t nacks_received = 0;
  uint64_t rtx_bytes = 0;
  uint64_t nacks_blocked = 0;
};

class Instance {
 public:
  explicit Instance(const WorkloadDef& def) : def_(def) {}

  void Build() { exp_ = std::make_unique<Experiment>(def_.config); }

  void Generate() {
    if (def_.collective) {
      groups_ = def_.groups.empty() ? exp_->MakeCrossRackGroups(def_.cross_rack_groups)
                                    : def_.groups;
    } else {
      flows_ = GenerateFlows(def_.flows, FlowSizeCdf::AliStorage(), exp_->host_count(),
                             exp_->edge_rate());
      uint64_t bytes = 0;
      size_t n = 0;
      while (n < flows_.size() && bytes < def_.byte_budget) {
        bytes += flows_[n++].bytes;
      }
      flows_.resize(n);
    }
  }

  // Collectives: create and start every group (the first half of
  // RunCollectives). Flows: schedule every arrival.
  void Post() {
    if (def_.collective) {
      ops_ = exp_->MakeCollectives(def_.kind, groups_, def_.bytes);
      remaining_ = ops_.size();
      for (auto& op : ops_) {
        op->Start([this] {
          if (--remaining_ == 0) {
            exp_->sim().Stop();
          }
        });
      }
    } else {
      driver_ = std::make_unique<FlowDriver>(exp_.get(), std::move(flows_));
      driver_->Post();
    }
  }

  void Run() { exp_->sim().RunUntil(def_.deadline); }

  Outcome Collect() const {
    Outcome out;
    if (def_.collective) {
      out.attempted = ops_.size();
      for (const auto& op : ops_) {
        if (!op->done()) {
          ++out.failed;
          continue;
        }
        out.tail_ps = std::max(out.tail_ps, op->CompletionTime());
      }
    } else {
      const FctWorkloadResult r = driver_->Collect();
      out.attempted = r.flows_total;
      out.failed = r.flows_total - r.flows_completed;
      out.flows_completed = r.flows_completed;
      out.slowdown_p50 = r.slowdown.p50;
      out.slowdown_p99 = r.slowdown.p99;
    }
    out.events = exp_->sim().events_executed();
    out.sim_time_ps = exp_->sim().now();
    out.nacks_received = exp_->TotalNacksReceived();
    out.rtx_bytes = exp_->TotalRtxBytes();
    out.nacks_blocked =
        exp_->themis() != nullptr ? exp_->themis()->AggregateDStats().nacks_blocked : 0;
    return out;
  }

  Experiment& exp() { return *exp_; }

 private:
  const WorkloadDef& def_;
  // exp_ first: the ops and the FlowDriver point into it and are destroyed first.
  std::unique_ptr<Experiment> exp_;
  std::vector<std::vector<int>> groups_;
  std::vector<FlowSpec> flows_;
  std::vector<std::unique_ptr<CollectiveOp>> ops_;
  size_t remaining_ = 0;
  std::unique_ptr<FlowDriver> driver_;
};

// ---------------------------------------------------------------------------
// Load-balancer timing decorator (traced pass only).

struct LbTally {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

// The burst entry points are forwarded only while LoadBalancer declares
// them, so the decorator keeps the undecorated dispatch path and still builds
// once they are deleted. BurstArg names SelectBurst's burst parameter type
// without naming the type itself.
template <typename Lb>
concept HasBurstSelect = requires(const Lb& lb) { lb.burst_stageable(); };

template <typename>
struct BurstArg;
template <typename C, typename B, typename... Rest>
struct BurstArg<void (C::*)(B, Rest...)> {
  using type = B;
};

class TimedLbCore : public LoadBalancer {
 public:
  TimedLbCore(std::unique_ptr<LoadBalancer> inner, LbTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  const char* name() const override { return inner_->name(); }
  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override {
    const auto t0 = Clock::now();
    const size_t choice = inner_->Select(pkt, candidates, ctx);
    tally_->self_ns += (Clock::now() - t0).count();
    ++tally_->calls;
    return choice;
  }

 protected:
  std::unique_ptr<LoadBalancer> inner_;
  LbTally* tally_;
};

template <typename Base, bool kBurst = HasBurstSelect<Base>>
class TimedLbBurst : public Base {
 public:
  using Base::Base;
};

template <typename Base>
class TimedLbBurst<Base, true> : public Base {
  using Burst = typename BurstArg<decltype(&Base::SelectBurst)>::type;

 public:
  using Base::Base;
  bool burst_stageable() const override { return this->inner_->burst_stageable(); }
  void SelectBurst(Burst burst, const uint32_t* idx, const std::span<Port* const>* candidates,
                   size_t n, const LbContext& ctx, uint32_t* choices) override {
    const auto t0 = Clock::now();
    this->inner_->SelectBurst(burst, idx, candidates, n, ctx, choices);
    this->tally_->self_ns += (Clock::now() - t0).count();
    this->tally_->calls += n;
  }
};

using TimedLb = TimedLbBurst<TimedLbCore>;

// Replaces every switch's data policy with a decorated fresh policy of the
// same kind. Returns false if a policy's name maps to no LbKind.
bool DecorateLoadBalancers(Experiment& exp, LbTally* tally) {
  LbParams params;
  params.flowlet_gap = exp.config().flowlet_gap;
  for (Switch* sw : exp.topology().switches) {
    const char* name = sw->data_lb()->name();
    bool found = false;
    for (int k = 0; k <= static_cast<int>(LbKind::kPsnSpray); ++k) {
      const LbKind kind = static_cast<LbKind>(k);
      if (std::strcmp(LbKindName(kind), name) == 0) {
        sw->set_data_lb(std::make_unique<TimedLb>(MakeLoadBalancer(kind, params), tally));
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "simbench: no LbKind named '%s'\n", name);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// JSON output

class JsonObject {
 public:
  JsonObject& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& SignedInt(const char* key, int64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& Num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Str(const char* key, const std::string& v) { return Raw(key, "\"" + v + "\""); }
  JsonObject& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Raw(const char* key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) + "\": " + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string FingerprintJson(const Outcome& o, bool collective) {
  JsonObject fp;
  fp.Int("events", o.events).SignedInt("sim_time_ps", o.sim_time_ps);
  if (collective) {
    fp.SignedInt("tail_completion_ps", o.tail_ps);
  } else {
    fp.Int("flows_completed", o.flows_completed)
        .Num("slowdown_p50", o.slowdown_p50)
        .Num("slowdown_p99", o.slowdown_p99);
  }
  fp.Int("nacks_received", o.nacks_received)
      .Int("rtx_bytes", o.rtx_bytes)
      .Int("nacks_blocked", o.nacks_blocked);
  return fp.str();
}

template <typename S>
const char* BurstMode(const S& sim) {
  if constexpr (requires { sim.burst_enabled(); }) {
    return sim.burst_enabled() ? "on" : "off";
  } else {
    return "none";
  }
}

std::string BuildJson(Experiment& exp) {
  JsonObject build;
  build.Str("build_type", SIMBENCH_BUILD_TYPE)
      .Bool("themis_trace", kTraceCompiledIn)
      .Str("burst_mode", BurstMode(exp.sim()))
      .Int("threads", 1);
  return build.str();
}

// Exact per-layer counts, summed from public stats in a fixed order.
void AddLayerCounts(Experiment& exp, JsonObject& m) {
  const EventQueue& q = exp.sim().queue();
  m.Int("sim.events_executed", exp.sim().events_executed())
      .Int("sim.heap_scheduled", q.heap_scheduled())
      .Int("sim.wheel_scheduled", q.wheel_scheduled())
      .Int("sim.calendar_scheduled", q.calendar_scheduled());

  PortStats ports;
  Network& net = exp.network();
  for (int id = 0; id < net.node_count(); ++id) {
    Node* node = net.node(id);
    for (int p = 0; p < node->port_count(); ++p) {
      const PortStats& s = node->port(p)->stats();
      ports.tx_packets += s.tx_packets;
      ports.drops += s.drops;
      ports.ecn_marks += s.ecn_marks;
      ports.pause_transitions += s.pause_transitions;
      ports.max_queue_bytes = std::max(ports.max_queue_bytes, s.max_queue_bytes);
    }
  }
  m.Int("net.tx_packets", ports.tx_packets)
      .Int("net.drops", ports.drops)
      .Int("net.ecn_marks", ports.ecn_marks)
      .Int("net.pause_transitions", ports.pause_transitions)
      .SignedInt("net.max_queue_bytes", ports.max_queue_bytes);

  SwitchStats sw_total;
  for (const Switch* sw : exp.topology().switches) {
    sw_total.forwarded += sw->stats().forwarded;
    sw_total.consumed_by_hook += sw->stats().consumed_by_hook;
    sw_total.pfc_pauses_sent += sw->stats().pfc_pauses_sent;
  }
  m.Int("topo.switches", exp.topology().switches.size())
      .Int("topo.forwarded", sw_total.forwarded)
      .Int("topo.consumed_by_hook", sw_total.consumed_by_hook)
      .Int("topo.pfc_pauses_sent", sw_total.pfc_pauses_sent);

  uint64_t qps = 0;
  SenderQpStats tx;
  ReceiverQpStats rx;
  CcStats cc;
  for (int h = 0; h < exp.host_count(); ++h) {
    RnicHost* host = exp.host(h);
    qps += host->sender_qps().size() + host->receiver_qps().size();
    for (SenderQp* qp : host->sender_qps()) {
      tx.data_packets_sent += qp->stats().data_packets_sent;
      tx.payload_bytes_sent += qp->stats().payload_bytes_sent;
      tx.rtx_packets += qp->stats().rtx_packets;
      tx.timeouts += qp->stats().timeouts;
      tx.cnps_received += qp->stats().cnps_received;
      const CcStats& c = qp->cc().stats();
      cc.rate_decreases += c.rate_decreases;
      cc.nack_decreases += c.nack_decreases;
      cc.cnp_received += c.cnp_received;
      cc.increase_events += c.increase_events;
    }
    for (const ReceiverQp* qp : host->receiver_qps()) {
      rx.goodput_bytes += qp->stats().goodput_bytes;
      rx.ooo_arrivals += qp->stats().ooo_arrivals;
      rx.duplicates += qp->stats().duplicates;
      rx.nacks_sent += qp->stats().nacks_sent;
    }
  }
  m.Int("rnic.qps", qps)
      .Int("rnic.data_packets_sent", tx.data_packets_sent)
      .Int("rnic.rtx_packets", tx.rtx_packets)
      .Num("rnic.useful_ratio", tx.payload_bytes_sent == 0
                                    ? 0.0
                                    : static_cast<double>(rx.goodput_bytes) /
                                          static_cast<double>(tx.payload_bytes_sent))
      .Int("rnic.ooo_arrivals", rx.ooo_arrivals)
      .Int("rnic.duplicates", rx.duplicates)
      .Int("rnic.nacks_sent", rx.nacks_sent)
      .Int("rnic.timeouts", tx.timeouts)
      .Int("rnic.cnps_received", tx.cnps_received);
  m.Int("cc.rate_decreases", cc.rate_decreases)
      .Int("cc.nack_decreases", cc.nack_decreases)
      .Int("cc.cnp_received", cc.cnp_received)
      .Int("cc.increase_events", cc.increase_events);

  ThemisDStats d;
  FlowTableStats table;
  if (exp.themis() != nullptr) {
    d = exp.themis()->AggregateDStats();
    for (const auto& hook : exp.themis()->d_hooks()) {
      table.inserts += hook->flow_table_stats().inserts;
      table.hits += hook->flow_table_stats().hits;
      table.peak_occupancy += hook->flow_table_stats().peak_occupancy;
    }
  }
  m.Int("themis.data_tracked", d.data_tracked)
      .Int("themis.nacks_seen", d.nacks_seen)
      .Int("themis.nacks_blocked", d.nacks_blocked)
      .Num("themis.block_ratio", d.nacks_seen == 0 ? 0.0
                                                   : static_cast<double>(d.nacks_blocked) /
                                                         static_cast<double>(d.nacks_seen))
      .Int("themis.compensated_nacks", d.compensated_nacks)
      .Int("themis.flow_table.inserts", table.inserts)
      .Int("themis.flow_table.hits", table.hits)
      .Int("themis.flow_table.peak_occupancy", table.peak_occupancy);

  const BackgroundTrafficEngine* traffic = exp.traffic();
  m.Int("traffic.epochs", traffic != nullptr ? traffic->stats().epochs : 0)
      .Int("traffic.port_updates", traffic != nullptr ? traffic->stats().port_updates : 0);
}

// ---------------------------------------------------------------------------
// Passes

struct Options {
  std::string workload;
  std::string mode;
  uint64_t seed = 42;
  bool tiny = false;
};

void PrintPassResult(const Outcome& out, bool collective, const JsonObject& extra) {
  JsonObject result = extra;
  result.Int("attempted", out.attempted)
      .Int("failed", out.failed)
      .Raw("fingerprint", FingerprintJson(out, collective));
  std::printf("%s\n", result.str().c_str());
}

int TimedPass(const WorkloadDef& def, bool with_telemetry) {
  Instance inst(def);
  std::unique_ptr<Telemetry> telemetry;
  const auto t0 = Clock::now();
  inst.Build();
  if (with_telemetry) {
    telemetry = std::make_unique<Telemetry>(&inst.exp().sim(), TelemetryConfig{});
    inst.exp().AttachTelemetry(telemetry.get());
  }
  inst.Generate();
  inst.Post();
  const double setup_s = SecondsSince(t0);
  inst.Run();
  const Outcome out = inst.Collect();
  const double wall_s = SecondsSince(t0);

  JsonObject extra;
  extra.Num("wall_s", wall_s)
      .Num("setup_s", setup_s)
      .Num("peak_rss_mb", PeakRssMb())
      .Raw("build", BuildJson(inst.exp()));
  if (telemetry != nullptr) {
    // recorded() counts every record accepted, including the overwritten()
    // ones the ring later evicted.
    extra.Int("telemetry.records", telemetry->trace().recorded())
        .Int("telemetry.overwritten", telemetry->trace().overwritten());
  }
  PrintPassResult(out, def.collective, extra);
  return 0;
}

int SetupPass(const WorkloadDef& def) {
  Instance inst(def);
  const auto t0 = Clock::now();
  inst.Build();
  inst.Generate();
  inst.Post();
  const double setup_s = SecondsSince(t0);
  std::printf("%s\n", JsonObject().Num("setup_s", setup_s).str().c_str());
  return 0;
}

int TracedPass(const WorkloadDef& def) {
  Instance inst(def);
  LbTally lb;
  const auto t0 = Clock::now();
  auto span = Clock::now();
  inst.Build();
  const double build_s = SecondsSince(span);
  if (!DecorateLoadBalancers(inst.exp(), &lb)) {
    return 3;
  }
  span = Clock::now();
  inst.Generate();
  const double generate_s = SecondsSince(span);
  span = Clock::now();
  inst.Post();
  const double post_s = SecondsSince(span);
  span = Clock::now();
  inst.Run();
  const double run_s = SecondsSince(span);
  span = Clock::now();
  const Outcome out = inst.Collect();
  const double collect_s = SecondsSince(span);
  const double wall_s = SecondsSince(t0);

  JsonObject m;
  const double lb_self_s = static_cast<double>(lb.self_ns) * 1e-9;
  m.Num("sim.run_s", run_s)
      .Num("sim.events_per_s", static_cast<double>(inst.exp().sim().events_executed()) / run_s)
      .Int("lb.select_calls", lb.calls)
      .Num("lb.self_s", lb_self_s)
      .Num("lb.ns_per_select",
           lb.calls == 0 ? 0.0 : static_cast<double>(lb.self_ns) / static_cast<double>(lb.calls))
      .Num("lb.run_share", lb_self_s / run_s)
      .Num("core.build_s", build_s)
      .Num("workload.generate_s", generate_s)
      .Num("workload.post_s", post_s)
      .Int("workload.flows", out.attempted)
      .Num("stats.collect_s", collect_s);
  AddLayerCounts(inst.exp(), m);

  JsonObject extra;
  extra.Num("wall_s", wall_s).Raw("build", BuildJson(inst.exp())).Raw("layers", m.str());
  PrintPassResult(out, def.collective, extra);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: simbench --workload NAME --seed N --mode timed|setup|traced|telemetry "
               "[--scale full|tiny]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--mode") {
      opt->mode = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        return false;
      }
      opt->tiny = value == "tiny";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty();
}

}  // namespace
}  // namespace themis

int main(int argc, char** argv) {
  using namespace themis;
  if (kSanitizerBuild) {
    std::fprintf(stderr, "simbench: refusing to report from a sanitizer build\n");
    return 3;
  }
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return Usage();
  }
  WorkloadDef def;
  if (!MakeWorkload(opt.workload, opt.seed, opt.tiny, &def)) {
    std::fprintf(stderr, "simbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.mode == "timed") {
    return TimedPass(def, /*with_telemetry=*/false);
  }
  if (opt.mode == "telemetry") {
    return TimedPass(def, /*with_telemetry=*/true);
  }
  if (opt.mode == "setup") {
    return SetupPass(def);
  }
  if (opt.mode == "traced") {
    return TracedPass(def);
  }
  return Usage();
}
