#include "src/topo/switch.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

namespace themis {

void Switch::ReceivePacket(const Packet& pkt, int in_port) {
  // Ingress CRC check: a wire-corrupted packet (gray failure) is counted and
  // dropped before any match-action stage sees it, as real switch MACs do.
  if (pkt.corrupted) {
    ++stats_.corrupt_drops;
    return;
  }
  Packet mutable_pkt = pkt;
  // Re-home the buffer attribution to this switch's ingress.
  mutable_pkt.sim_ingress = in_port;
  for (SwitchHook* hook : hooks_) {
    if (!hook->OnIngress(*this, mutable_pkt, in_port)) {
      ++stats_.consumed_by_hook;
      return;
    }
  }
  Forward(mutable_pkt);
}

void Switch::Forward(const Packet& pkt) {
  const std::span<Port* const> all = RouteCandidates(pkt.dst_host);
  if (all.empty()) {
    ++stats_.no_route_drops;
    return;
  }

  // Fast path: no failed candidates (the common case). SetRoute caps a
  // route at kMaxEqualCostPaths, so the live subset always fits.
  std::array<Port*, kMaxEqualCostPaths> live_storage;
  std::span<Port* const> candidates = all;
  size_t live_count = 0;
  for (Port* port : all) {
    if (!port->failed()) {
      live_storage[live_count++] = port;
    }
  }
  if (live_count == 0) {
    ++stats_.no_route_drops;
    return;
  }
  if (live_count != all.size()) {
    candidates = std::span<Port* const>(live_storage.data(), live_count);
  }

  LbContext ctx{.switch_salt = ecmp_salt_,
                .hash_shift = hash_shift_,
                .now = sim()->now(),
                .rng = &sim()->rng()};
  LoadBalancer* lb = pkt.IsControl() ? &control_lb_ : data_lb_.get();
  const size_t choice = lb->Select(pkt, candidates, ctx);
  ++stats_.forwarded;
  // Charge shared-buffer credit BEFORE handing to the egress: an idle port
  // transmits synchronously, and the dequeue callback releases the credit.
  const bool track = pfc_.enabled && !pkt.IsControl() && pkt.sim_ingress >= 0;
  if (track) {
    ChargeIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
  const bool accepted = candidates[choice]->Send(pkt);
  if (track && !accepted) {
    ReleaseIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
}

void Switch::OnDataPacketDequeued(const Packet& pkt) {
  if (pfc_.enabled && pkt.sim_ingress >= 0) {
    ReleaseIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
}

void Switch::ChargeIngress(int in_port, int64_t bytes) {
  const auto index = static_cast<size_t>(in_port);
  if (ingress_bytes_.size() <= index) {
    ingress_bytes_.resize(index + 1, 0);
    ingress_paused_.resize(index + 1, false);
    ingress_pause_log_.resize(index + 1);
  }
  ingress_bytes_[index] += bytes;
  if (!ingress_paused_[index] && ingress_bytes_[index] >= pfc_.xoff_bytes) {
    ingress_paused_[index] = true;
    ++stats_.pfc_pauses_sent;
    ingress_pause_log_[index].Open(sim()->now());
    SendPfcFrame(in_port, /*pause=*/true);
  }
}

void Switch::ReleaseIngress(int in_port, int64_t bytes) {
  const auto index = static_cast<size_t>(in_port);
  if (ingress_bytes_.size() <= index) {
    return;
  }
  ingress_bytes_[index] -= bytes;
  if (ingress_paused_[index] && ingress_bytes_[index] <= pfc_.xon_bytes) {
    ingress_paused_[index] = false;
    ++stats_.pfc_resumes_sent;
    ingress_pause_log_[index].Close(sim()->now());
    SendPfcFrame(in_port, /*pause=*/false);
  }
}

void Switch::SendPfcFrame(int in_port, bool pause) {
  // PFC frames are link-local and ride the highest priority: model them as
  // an out-of-band signal delivered after one frame time + propagation.
  Port* reverse = port(in_port);
  if (!reverse->connected() || reverse->failed()) {
    return;
  }
  Port* upstream_port = reverse->peer()->port(reverse->peer_port());
  const TimePs latency =
      reverse->rate().SerializationTime(kControlPacketBytes) + reverse->propagation_delay();
  sim()->Schedule(latency, [upstream_port, pause] { upstream_port->SetPaused(pause); });
}

void Switch::SetRoute(int dst_node, std::span<const int> port_indices) {
  if (port_indices.size() > kMaxEqualCostPaths) {
    std::fprintf(stderr, "switch %s: route to node %d has %zu equal-cost ports, more than %zu\n",
                 name().c_str(), dst_node, port_indices.size(), kMaxEqualCostPaths);
    std::abort();
  }
  std::array<Port*, kMaxEqualCostPaths> storage{};
  bool all_host_facing = !port_indices.empty();
  for (size_t i = 0; i < port_indices.size(); ++i) {
    storage[i] = port(port_indices[i]);
    all_host_facing = all_host_facing && IsHostPort(port_indices[i]);
  }
  const std::span<Port* const> ports(storage.data(), port_indices.size());

  // Linear scan: at most ports+1 groups in a Clos fabric (see switch.h). The
  // last-hop flag is part of the match so a set interned before MarkHostPort
  // is not reused with a stale flag.
  uint32_t group = 0;
  const auto groups = static_cast<uint32_t>(group_last_hop_.size());
  while (group < groups && (group_last_hop_[group] != all_host_facing ||
                            !std::ranges::equal(GroupPorts(group), ports))) {
    ++group;
  }
  if (group == groups) {
    group_ports_.insert(group_ports_.end(), ports.begin(), ports.end());
    group_offset_.push_back(static_cast<uint32_t>(group_ports_.size()));
    group_last_hop_.push_back(all_host_facing);
  }

  const auto dst = static_cast<size_t>(dst_node);
  if (route_group_.size() <= dst) {
    route_group_.resize(dst + 1, 0);
  }
  route_group_[dst] = group;
}

void Switch::MarkHostPort(int port_index) {
  if (host_port_.size() <= static_cast<size_t>(port_index)) {
    host_port_.resize(static_cast<size_t>(port_index) + 1, false);
  }
  host_port_[static_cast<size_t>(port_index)] = true;
}

}  // namespace themis
