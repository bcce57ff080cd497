// Tests for topology builders, equal-cost routing, the per-switch route-group
// table, and the Switch dataplane (hooks, host-port marking, failure
// filtering).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/topo/fat_tree.h"
#include "src/topo/leaf_spine.h"
#include "src/topo/switch.h"

namespace themis {
namespace {

// Host stub that records deliveries.
class StubHost : public Node {
 public:
  StubHost(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

HostFactory StubFactory(std::vector<StubHost*>* out) {
  return [out](Network& net, int, const std::string& name) {
    StubHost* host = net.MakeNode<StubHost>(name);
    out->push_back(host);
    return host;
  };
}

struct LeafSpineHarness {
  Simulator sim;
  Network net{&sim};
  std::vector<StubHost*> hosts;
  Topology topo;

  LeafSpineHarness(int tors, int spines, int hosts_per_tor) {
    LeafSpineConfig config;
    config.num_tors = tors;
    config.num_spines = spines;
    config.hosts_per_tor = hosts_per_tor;
    topo = BuildLeafSpine(net, config, StubFactory(&hosts));
  }
};

TEST(LeafSpineTest, NodeAndLinkCounts) {
  LeafSpineHarness h(4, 8, 16);
  EXPECT_EQ(h.topo.hosts.size(), 64u);
  EXPECT_EQ(h.topo.switches.size(), 12u);
  EXPECT_EQ(h.topo.tors.size(), 4u);
  EXPECT_EQ(h.topo.equal_cost_paths, 8);
  // links: hosts (64) + tor-spine mesh (4*8).
  EXPECT_EQ(h.net.links().size(), 64u + 32u);
}

TEST(LeafSpineTest, HostTorAssignmentIsTorMajor) {
  LeafSpineHarness h(2, 2, 4);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(h.topo.host_tor[static_cast<size_t>(i)], h.topo.tors[static_cast<size_t>(i / 4)]);
  }
  EXPECT_TRUE(h.topo.CrossRack(0, 4));
  EXPECT_FALSE(h.topo.CrossRack(0, 3));
}

TEST(LeafSpineTest, TorHasEqualCostUplinksForRemoteHost) {
  LeafSpineHarness h(2, 4, 2);
  Switch* tor0 = h.topo.tors[0];
  // Remote host (under tor1): all 4 spine uplinks are candidates.
  EXPECT_EQ(tor0->RouteCandidates(h.topo.hosts[2]->id()).size(), 4u);
  // Local host: single host-facing port.
  EXPECT_EQ(tor0->RouteCandidates(h.topo.hosts[0]->id()).size(), 1u);
  EXPECT_TRUE(tor0->IsLastHop(h.topo.hosts[0]->id()));
  EXPECT_FALSE(tor0->IsLastHop(h.topo.hosts[2]->id()));
}

TEST(LeafSpineTest, SpineRoutesToUniqueTor) {
  LeafSpineHarness h(3, 2, 2);
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) != 0) {
      continue;
    }
    for (Node* host : h.topo.hosts) {
      EXPECT_EQ(sw->RouteCandidates(host->id()).size(), 1u)
          << sw->name() << " -> " << host->name();
    }
  }
}

TEST(LeafSpineTest, PacketReachesCrossRackDestination) {
  LeafSpineHarness h(2, 4, 2);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[3];
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1234));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].psn, 0u);
}

TEST(LeafSpineTest, IntraRackStaysLocal) {
  LeafSpineHarness h(2, 4, 2);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[1];
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1234));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  // No spine carried traffic.
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0) {
      EXPECT_EQ(sw->stats().forwarded, 0u);
    }
  }
}

TEST(LeafSpineTest, AllFlowsDeliveredUnderEveryLbKind) {
  for (LbKind kind : {LbKind::kEcmp, LbKind::kRandomSpray, LbKind::kAdaptive, LbKind::kFlowlet,
                      LbKind::kPsnSpray}) {
    LeafSpineHarness h(2, 4, 2);
    InstallLoadBalancer(h.topo, kind);
    StubHost* src = h.hosts[0];
    StubHost* dst = h.hosts[2];
    for (uint32_t psn = 0; psn < 40; ++psn) {
      src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
    }
    h.sim.Run();
    EXPECT_EQ(dst->received.size(), 40u) << LbKindName(kind);
  }
}

TEST(LeafSpineTest, PsnSprayUsesAllSpines) {
  LeafSpineHarness h(2, 4, 2);
  InstallTorLoadBalancer(h.topo, LbKind::kPsnSpray);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  for (uint32_t psn = 0; psn < 64; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
  }
  h.sim.Run();
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0) {
      EXPECT_EQ(sw->stats().forwarded, 16u) << sw->name();  // 64 / 4 exactly
    }
  }
}

TEST(LeafSpineTest, EcmpPinsFlowToOneSpine) {
  LeafSpineHarness h(2, 4, 2);
  InstallLoadBalancer(h.topo, LbKind::kEcmp);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  for (uint32_t psn = 0; psn < 64; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
  }
  h.sim.Run();
  int spines_used = 0;
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0 && sw->stats().forwarded > 0) {
      ++spines_used;
    }
  }
  EXPECT_EQ(spines_used, 1);
}

TEST(SwitchTest, FailedUplinkExcludedFromCandidates) {
  LeafSpineHarness h(2, 4, 2);
  InstallLoadBalancer(h.topo, LbKind::kRandomSpray);
  Switch* tor0 = h.topo.tors[0];
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];

  // Fail one ToR uplink; traffic must still arrive via the other three.
  auto candidates = tor0->RouteCandidates(dst->id());
  ASSERT_EQ(candidates.size(), 4u);
  candidates[0]->set_failed(true);

  for (uint32_t psn = 0; psn < 100; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
  }
  h.sim.Run();
  EXPECT_EQ(dst->received.size(), 100u);
}

TEST(SwitchTest, AllUplinksFailedDropsWithStat) {
  LeafSpineHarness h(2, 2, 2);
  Switch* tor0 = h.topo.tors[0];
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  for (Port* port : tor0->RouteCandidates(dst->id())) {
    port->set_failed(true);
  }
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0));
  h.sim.Run();
  EXPECT_TRUE(dst->received.empty());
  EXPECT_EQ(tor0->stats().no_route_drops, 1u);
}

TEST(SwitchTest, NoRouteDropCounted) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("lone");
  Packet pkt = MakeDataPacket(1, 100, 200, 0, 100, 0);
  sw->ReceivePacket(pkt, 0);
  EXPECT_EQ(sw->stats().no_route_drops, 1u);
}

// A hook that consumes every NACK and counts ingress calls.
class CountingHook : public SwitchHook {
 public:
  bool OnIngress(Switch&, Packet& pkt, int) override {
    ++calls;
    return pkt.type != PacketType::kNack;
  }
  int calls = 0;
};

TEST(SwitchTest, HookSeesPacketsAndCanConsume) {
  LeafSpineHarness h(2, 2, 2);
  CountingHook hook;
  h.topo.tors[0]->AddHook(&hook);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];

  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0));
  src->port(0)->Send(MakeControlPacket(PacketType::kNack, 1, src->id(), dst->id(), 0, 0));
  h.sim.Run();

  EXPECT_EQ(hook.calls, 2);
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].type, PacketType::kData);
  EXPECT_EQ(h.topo.tors[0]->stats().consumed_by_hook, 1u);
}

// A hook that mutates headers (models Themis-S sport rewriting).
class RewriteHook : public SwitchHook {
 public:
  bool OnIngress(Switch&, Packet& pkt, int) override {
    pkt.udp_sport = 0xAAAA;
    return true;
  }
};

TEST(SwitchTest, HookMutationPropagates) {
  LeafSpineHarness h(2, 2, 2);
  RewriteHook hook;
  h.topo.tors[0]->AddHook(&hook);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1111));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].udp_sport, 0xAAAA);
}

TEST(SwitchTest, MarkHostPortQueries) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("sw");
  sw->AddPort();
  sw->AddPort();
  sw->MarkHostPort(1);
  EXPECT_FALSE(sw->IsHostPort(0));
  EXPECT_TRUE(sw->IsHostPort(1));
  EXPECT_FALSE(sw->IsHostPort(7));
  EXPECT_FALSE(sw->IsHostPort(-1));
}

TEST(SwitchDeathTest, RouteWiderThanMaxEqualCostPathsAborts) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("wide");
  std::vector<int> ports;
  for (size_t i = 0; i <= Switch::kMaxEqualCostPaths; ++i) {
    ports.push_back(sw->AddPort());
  }
  ASSERT_EQ(ports.size(), 65u);
  // Exactly kMaxEqualCostPaths candidates is a legal route.
  sw->SetRoute(0, std::vector<int>(ports.begin(), ports.end() - 1));
  EXPECT_EQ(sw->RouteCandidates(0).size(), Switch::kMaxEqualCostPaths);
  EXPECT_DEATH(sw->SetRoute(1, ports),
               "switch wide: route to node 1 has 65 equal-cost ports, more than 64");
}

// --- Fat-tree ----------------------------------------------------------------

struct FatTreeHarness {
  Simulator sim;
  Network net{&sim};
  std::vector<StubHost*> hosts;
  Topology topo;

  explicit FatTreeHarness(int k) {
    FatTreeConfig config;
    config.k = k;
    topo = BuildFatTree(net, config, StubFactory(&hosts));
  }
};

TEST(FatTreeTest, K4Counts) {
  FatTreeHarness h(4);
  EXPECT_EQ(h.topo.hosts.size(), 16u);           // k^3/4
  EXPECT_EQ(h.topo.switches.size(), 20u);        // 4 core + 8 agg + 8 edge
  EXPECT_EQ(h.topo.tors.size(), 8u);
  EXPECT_EQ(h.topo.equal_cost_paths, 4);         // (k/2)^2
}

TEST(FatTreeTest, InterPodEqualCostPathCount) {
  FatTreeHarness h(4);
  // Edge switch: 2 uplinks toward any inter-pod host.
  Switch* edge0 = h.topo.tors[0];
  Node* remote = h.topo.hosts[15];  // last pod
  EXPECT_EQ(edge0->RouteCandidates(remote->id()).size(), 2u);
}

TEST(FatTreeTest, AllPairsReachable) {
  FatTreeHarness h(4);
  for (size_t s = 0; s < h.hosts.size(); ++s) {
    for (size_t d = 0; d < h.hosts.size(); ++d) {
      if (s == d) {
        continue;
      }
      h.hosts[s]->port(0)->Send(MakeDataPacket(static_cast<uint32_t>(s * 100 + d),
                                               h.hosts[s]->id(), h.hosts[d]->id(), 0, 100,
                                               static_cast<uint16_t>(s * 17 + d)));
    }
  }
  h.sim.Run();
  for (StubHost* host : h.hosts) {
    EXPECT_EQ(host->received.size(), h.hosts.size() - 1) << host->name();
  }
}

TEST(FatTreeTest, K8Scales) {
  FatTreeHarness h(8);
  EXPECT_EQ(h.topo.hosts.size(), 128u);
  EXPECT_EQ(h.topo.equal_cost_paths, 16);
  // Spot-check one cross-pod delivery.
  h.hosts[0]->port(0)->Send(
      MakeDataPacket(1, h.hosts[0]->id(), h.hosts[127]->id(), 0, 100, 0x42));
  h.sim.Run();
  EXPECT_EQ(h.hosts[127]->received.size(), 1u);
}

// --- Route groups -------------------------------------------------------------

// Ports of `sw` whose peer is a switch, in port-index order: the uplink set
// BuildEqualCostRoutes installs at a ToR for every host it does not face.
std::vector<Port*> SwitchFacingPorts(Switch* sw) {
  std::vector<Port*> ports;
  for (int i = 0; i < sw->port_count(); ++i) {
    if (sw->port(i)->peer()->kind() == NodeKind::kSwitch) {
      ports.push_back(sw->port(i));
    }
  }
  return ports;
}

// Two remote destinations of `tor` resolve to one stored set, holding the
// uplinks in port order.
void ExpectRemotesShareUplinkGroup(Switch* tor, const Node* remote_a, const Node* remote_b) {
  const auto a = tor->RouteCandidates(remote_a->id());
  const auto b = tor->RouteCandidates(remote_b->id());
  const std::vector<Port*> uplinks = SwitchFacingPorts(tor);
  EXPECT_EQ(a.data(), b.data()) << tor->name();
  EXPECT_EQ(std::vector<Port*>(a.begin(), a.end()), uplinks) << tor->name();
  EXPECT_EQ(std::vector<Port*>(b.begin(), b.end()), uplinks) << tor->name();
}

// IsLastHop holds at a switch exactly for the hosts it faces.
void ExpectLastHopExactlyAtHostTor(const Topology& topo) {
  for (Switch* sw : topo.switches) {
    for (size_t h = 0; h < topo.hosts.size(); ++h) {
      EXPECT_EQ(sw->IsLastHop(topo.hosts[h]->id()), topo.host_tor[h] == sw)
          << sw->name() << " -> " << topo.hosts[h]->name();
    }
  }
}

TEST(RouteGroupTest, LeafSpineRemoteDestinationsShareOneGroup) {
  LeafSpineHarness h(2, 4, 2);
  ExpectRemotesShareUplinkGroup(h.topo.tors[0], h.topo.hosts[2], h.topo.hosts[3]);
  ExpectRemotesShareUplinkGroup(h.topo.tors[1], h.topo.hosts[0], h.topo.hosts[1]);
  ExpectLastHopExactlyAtHostTor(h.topo);
}

TEST(RouteGroupTest, FatTreeRemoteDestinationsShareOneGroup) {
  FatTreeHarness h(4);
  // Same pod, other edge (host 2) and other pod (host 15) take the same two
  // aggregation uplinks from edge 0.
  ExpectRemotesShareUplinkGroup(h.topo.tors[0], h.topo.hosts[2], h.topo.hosts[15]);
  ExpectLastHopExactlyAtHostTor(h.topo);
}

TEST(RouteGroupTest, SetRouteKeepsCandidateOrder) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("sw");
  const int a = sw->AddPort();
  const int b = sw->AddPort();
  sw->SetRoute(0, std::vector<int>{a, b});
  sw->SetRoute(1, std::vector<int>{b, a});
  const auto ab = sw->RouteCandidates(0);
  const auto ba = sw->RouteCandidates(1);
  EXPECT_NE(ab.data(), ba.data());
  ASSERT_EQ(ab.size(), 2u);
  ASSERT_EQ(ba.size(), 2u);
  EXPECT_EQ(ab[0], sw->port(a));
  EXPECT_EQ(ab[1], sw->port(b));
  EXPECT_EQ(ba[0], sw->port(b));
  EXPECT_EQ(ba[1], sw->port(a));
}

TEST(RouteGroupTest, ResetRepointsOnlyThatDestination) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("sw");
  const int a = sw->AddPort();
  const int b = sw->AddPort();
  const int c = sw->AddPort();
  sw->SetRoute(0, std::vector<int>{a, b});
  sw->SetRoute(1, std::vector<int>{a, b});
  EXPECT_EQ(sw->RouteCandidates(0).data(), sw->RouteCandidates(1).data());

  sw->SetRoute(0, std::vector<int>{c});
  const auto moved = sw->RouteCandidates(0);
  const auto kept = sw->RouteCandidates(1);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], sw->port(c));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], sw->port(a));
  EXPECT_EQ(kept[1], sw->port(b));

  // An empty set is "no route"; unset destinations read the same.
  sw->SetRoute(1, std::vector<int>{});
  EXPECT_TRUE(sw->RouteCandidates(1).empty());
  EXPECT_TRUE(sw->RouteCandidates(7).empty());
  EXPECT_FALSE(sw->IsLastHop(7));
  EXPECT_EQ(sw->RouteCandidates(0)[0], sw->port(c));
}

// The Clos bound the interning scan relies on, read on the 1024-host fabric:
// edge and aggregation switches have k/2 down ports plus one uplink set,
// core switches one down port per pod.
TEST(RouteGroupTest, K16FatTreeDistinctGroupsPerTier) {
  FatTreeHarness h(16);
  ASSERT_EQ(h.topo.hosts.size(), 1024u);
  ASSERT_EQ(h.topo.switches.size(), 320u);
  for (Switch* sw : h.topo.switches) {
    std::set<Port* const*> groups;
    for (Node* host : h.topo.hosts) {
      groups.insert(sw->RouteCandidates(host->id()).data());
    }
    const size_t want = sw->name().rfind("core", 0) == 0 ? 16u : 9u;
    EXPECT_EQ(groups.size(), want) << sw->name();
  }
}

}  // namespace
}  // namespace themis
