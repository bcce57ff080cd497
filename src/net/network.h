// Ownership and wiring of the network graph.
//
// A Network owns all nodes; Connect() creates a full-duplex link (two
// directional ports) between two nodes. Topology builders (src/topo) use
// this to assemble leaf-spine and fat-tree fabrics.

#ifndef THEMIS_SRC_NET_NETWORK_H_
#define THEMIS_SRC_NET_NETWORK_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/net/node.h"
#include "src/net/packet_queue.h"
#include "src/net/port.h"
#include "src/sim/simulator.h"

namespace themis {

// Physical parameters of one full-duplex link.
struct LinkSpec {
  Rate rate = Rate::Gbps(100);
  TimePs propagation_delay = 1 * kMicrosecond;
  int64_t queue_capacity_bytes = 2 * 1024 * 1024;  // per egress port
};

// One directional half of a link, identified by (node, port index).
struct LinkEnd {
  Node* node = nullptr;
  int port = -1;
};

// A full-duplex link as created by Network::Connect.
struct DuplexLink {
  LinkEnd a;  // port on node A towards node B
  LinkEnd b;  // port on node B towards node A
};

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Takes ownership of `node`; returns the raw pointer for wiring. The node
  // id must equal its index in the network (builders guarantee this by
  // creating nodes through the network's id counter).
  template <typename NodeT, typename... Args>
  NodeT* MakeNode(Args&&... args) {
    auto node = std::make_unique<NodeT>(sim_, NextId(), std::forward<Args>(args)...);
    NodeT* raw = node.get();
    raw->set_packet_arena(&packet_arena_);  // share one freelist fabric-wide
    nodes_.push_back(std::move(node));
    return raw;
  }

  // Creates a full-duplex link between `a` and `b` with identical physical
  // parameters in both directions.
  DuplexLink Connect(Node* a, Node* b, const LinkSpec& spec);

  // Sizes the simulator's calendar tier from the links wired so far.
  // Horizon: a serialization plus the longest propagation delay, twice over
  // (the cursor re-anchors mid-horizon), with slack; it sets how far ahead
  // an entry may fire before it overflows to the heap. Bucket width: the
  // largest power of two not above that window over the fabric's firing
  // population — per directed port, one serialization event plus one
  // delivery per MTU packet on the wire fire in the window — so buckets
  // stay a few entries deep at full load.
  // Topology builders call this once after wiring; Experiment re-calls it
  // with the configured MTU. Idempotent and a no-op (returns false) if
  // events are already pending or no links exist.
  bool AutoSizeScheduler(uint32_t mtu_bytes = 1500);

  Node* node(int id) { return nodes_[static_cast<size_t>(id)].get(); }
  const Node* node(int id) const { return nodes_[static_cast<size_t>(id)].get(); }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  const std::vector<DuplexLink>& links() const { return links_; }
  Simulator* sim() const { return sim_; }
  const PacketArena& packet_arena() const { return packet_arena_; }

  // Next node id to be assigned (== current node count).
  int NextId() const { return static_cast<int>(nodes_.size()); }

 private:
  Simulator* sim_;
  // Declared before nodes_: ports (owned by nodes) return their queue nodes
  // to the arena on destruction, so it must be torn down last.
  PacketArena packet_arena_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<DuplexLink> links_;
  // Link-rate envelope accumulated by Connect(), for AutoSizeScheduler().
  Rate fastest_link_rate_;
  TimePs max_propagation_delay_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_NET_NETWORK_H_
