// The switch model.
//
// A switch forwards by (1) running its ingress hooks — this is where Themis-S
// and Themis-D attach, exactly like match-action stages on a programmable
// ToR — then (2) looking up the equal-cost candidate egress set for the
// destination and (3) asking its load-balancing policy to pick one. Control
// packets (ACK/NACK/CNP) always follow plain ECMP. The candidate sets live in
// a per-switch route-group table: each distinct set is stored once and
// destinations index it, so routing state grows with the distinct sets, not
// with switches x hosts.

#ifndef THEMIS_SRC_TOPO_SWITCH_H_
#define THEMIS_SRC_TOPO_SWITCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/lb/policies.h"
#include "src/net/node.h"
#include "src/net/pause_log.h"
#include "src/net/port.h"

namespace themis {

class Switch;

// Programmable-dataplane attachment point. Hooks run in registration order
// on every ingress packet; returning false consumes the packet (Themis-D
// blocking an invalid NACK). Hooks may mutate the packet (Themis-S rewriting
// the UDP source port).
class SwitchHook {
 public:
  virtual ~SwitchHook() = default;
  virtual bool OnIngress(Switch& sw, Packet& pkt, int in_port) = 0;
};

struct SwitchStats {
  uint64_t forwarded = 0;
  uint64_t consumed_by_hook = 0;
  uint64_t no_route_drops = 0;
  uint64_t corrupt_drops = 0;  // ingress CRC check failed (gray failure)
  uint64_t pfc_pauses_sent = 0;
  uint64_t pfc_resumes_sent = 0;
};

// Priority flow control (802.1Qbb) for the data traffic class: when the
// buffer bytes attributed to one ingress port exceed xoff, the switch pauses
// its upstream neighbour; once they drain below xon it resumes. Control
// packets (ACK/NACK/CNP) ride a separate lossless priority and are never
// paused. This is what makes RoCE fabrics drop-free and is assumed by the
// paper's DCQCN setup.
struct PfcConfig {
  bool enabled = false;
  int64_t xoff_bytes = 150 * 1024;
  int64_t xon_bytes = 100 * 1024;
};

class Switch : public Node {
 public:
  Switch(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kSwitch, std::move(name)) {}

  void ReceivePacket(const Packet& pkt, int in_port) override;
  void OnDataPacketDequeued(const Packet& pkt) override;

  // Forwards `pkt` according to routing + LB, bypassing ingress hooks. Used
  // by hooks themselves to inject packets (e.g. compensated NACKs).
  void Forward(const Packet& pkt);

  // --- PFC ------------------------------------------------------------------
  void ConfigurePfc(const PfcConfig& config) { pfc_ = config; }
  const PfcConfig& pfc() const { return pfc_; }
  int64_t IngressBufferBytes(int in_port) const {
    return static_cast<size_t>(in_port) < ingress_bytes_.size()
               ? ingress_bytes_[static_cast<size_t>(in_port)]
               : 0;
  }
  // Pause intervals this switch has asserted towards the neighbour on
  // `in_port` (the in-network observation point the paper gives Themis:
  // the ToR sees its own pause frames). Null if never asserted.
  const PauseIntervalLog* IngressPauseLog(int in_port) const {
    return in_port >= 0 && static_cast<size_t>(in_port) < ingress_pause_log_.size()
               ? &ingress_pause_log_[static_cast<size_t>(in_port)]
               : nullptr;
  }
  // Max pause time any single upstream neighbour spent paused by this switch
  // overlapping [from, to]. Upstream pauses on different ingress ports run
  // concurrently, so the max (not the sum) bounds one packet's extra delay.
  TimePs MaxIngressPauseOverlapPs(TimePs from, TimePs to) const {
    TimePs max_overlap = 0;
    for (const PauseIntervalLog& log : ingress_pause_log_) {
      max_overlap = std::max(max_overlap, log.OverlapPs(from, to, sim()->now()));
    }
    return max_overlap;
  }

  // --- Routing table -------------------------------------------------------
  // Destinations do not own their candidate sets: each distinct, ordered
  // equal-cost port set is stored once per switch (a "route group") and every
  // destination holds the index of its group. Group 0 is the empty set and
  // means "no route". Order is part of a group's identity because the LB's
  // returned index selects candidates[choice], so {a,b} and {b,a} are two
  // groups. Assumption: in a Clos fabric a switch has at most ports+1
  // distinct sets (one per down port plus the uplink set), so interning
  // linear-scans the groups.

  // Most equal-cost candidates one route may hold: Forward filters failed
  // candidates into a fixed array of this size.
  static constexpr size_t kMaxEqualCostPaths = 64;

  // Points `dst_node` at the group holding exactly `port_indices`, in order,
  // appending the group if it is new. Other destinations are untouched.
  // Aborts with a message naming the switch if `port_indices` holds more
  // than kMaxEqualCostPaths ports.
  void SetRoute(int dst_node, std::span<const int> port_indices);
  // Equal-cost egress candidates for `dst_node`: a view into the group
  // table, shared by every destination with the same set. Valid until the
  // next SetRoute.
  std::span<Port* const> RouteCandidates(int dst_node) const {
    return GroupPorts(RouteGroup(dst_node));
  }
  // True when every candidate for `dst_node` is a host-facing port, i.e. this
  // switch is the destination's ToR and this is the last switch hop.
  bool IsLastHop(int dst_node) const { return group_last_hop_[RouteGroup(dst_node)]; }

  // --- Policy & identity ---------------------------------------------------
  void set_data_lb(std::unique_ptr<LoadBalancer> lb) { data_lb_ = std::move(lb); }
  LoadBalancer* data_lb() const { return data_lb_.get(); }
  void set_ecmp_salt(uint32_t salt) { ecmp_salt_ = salt; }
  uint32_t ecmp_salt() const { return ecmp_salt_; }
  // Hash bit-slice this tier consults (decorrelates ECMP stages while
  // keeping GF(2) linearity; see src/themis/path_map.h).
  void set_hash_shift(uint32_t shift) { hash_shift_ = shift; }
  uint32_t hash_shift() const { return hash_shift_; }

  void MarkHostPort(int port_index);
  bool IsHostPort(int port_index) const {
    return port_index >= 0 && static_cast<size_t>(port_index) < host_port_.size() &&
           host_port_[static_cast<size_t>(port_index)];
  }

  void AddHook(SwitchHook* hook) { hooks_.push_back(hook); }

  const SwitchStats& stats() const { return stats_; }

 private:
  // Charges/releases shared-buffer credit for `in_port` and drives PFC
  // pause/resume towards the upstream neighbour.
  void ChargeIngress(int in_port, int64_t bytes);
  void ReleaseIngress(int in_port, int64_t bytes);
  void SendPfcFrame(int in_port, bool pause);

  uint32_t RouteGroup(int dst_node) const {
    const auto dst = static_cast<size_t>(dst_node);
    return dst < route_group_.size() ? route_group_[dst] : 0;
  }
  std::span<Port* const> GroupPorts(uint32_t group) const {
    return {group_ports_.data() + group_offset_[group],
            group_offset_[group + 1] - group_offset_[group]};
  }

  std::vector<Port*> group_ports_;            // every distinct set, concatenated
  std::vector<uint32_t> group_offset_{0, 0};  // group g = [offset[g], offset[g+1])
  std::vector<bool> group_last_hop_{false};   // group -> all candidates host-facing
  std::vector<uint32_t> route_group_;         // dst node id -> group (0: no route)
  std::vector<bool> host_port_;               // port index -> faces a host
  std::unique_ptr<LoadBalancer> data_lb_ = std::make_unique<EcmpLb>();
  EcmpLb control_lb_;
  std::vector<SwitchHook*> hooks_;
  uint32_t ecmp_salt_ = 0;
  uint32_t hash_shift_ = 0;
  PfcConfig pfc_;
  std::vector<int64_t> ingress_bytes_;  // buffered bytes per ingress port
  std::vector<bool> ingress_paused_;    // pause currently asserted upstream
  std::vector<PauseIntervalLog> ingress_pause_log_;  // assertion history per ingress
  SwitchStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_TOPO_SWITCH_H_
