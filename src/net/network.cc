#include "src/net/network.h"

#include <algorithm>

namespace themis {

DuplexLink Network::Connect(Node* a, Node* b, const LinkSpec& spec) {
  const int port_a = a->AddPort();
  const int port_b = b->AddPort();
  a->port(port_a)->ConnectTo(b, port_b, spec.rate, spec.propagation_delay,
                             spec.queue_capacity_bytes);
  b->port(port_b)->ConnectTo(a, port_a, spec.rate, spec.propagation_delay,
                             spec.queue_capacity_bytes);
  DuplexLink link{{a, port_a}, {b, port_b}};
  links_.push_back(link);
  if (spec.rate > fastest_link_rate_) {
    fastest_link_rate_ = spec.rate;
  }
  max_propagation_delay_ = std::max(max_propagation_delay_, spec.propagation_delay);
  return link;
}

namespace {

int FloorLog2(uint64_t x) { return 63 - __builtin_clzll(x); }

}  // namespace

bool Network::AutoSizeScheduler(uint32_t mtu_bytes) {
  if (fastest_link_rate_.IsZero()) {
    return false;
  }
  const TimePs quantum = fastest_link_rate_.SerializationTime(mtu_bytes);
  if (quantum <= 0) {
    return false;
  }
  // Horizon: one serialization plus the longest propagation delay, doubled
  // because the cursor re-anchors half a horizon behind the first event
  // after an idle stretch, plus 16 quantum-sized slots of slack for ECN/PFC
  // timing jitter. Rounded up to a power of two within [64, 4096] such
  // slots, with the slot clamped to [1 ns, ~16.8 us]. The horizon, not the
  // bucket width, sets how far ahead an entry may fire before it overflows
  // to the heap.
  const int slot_bits = std::clamp(FloorLog2(static_cast<uint64_t>(quantum)), 10, 24);
  const TimePs slot = TimePs{1} << slot_bits;
  const TimePs needed = 2 * (quantum + max_propagation_delay_) + 16 * slot;
  TimePs horizon = 64 * slot;
  while (horizon < needed && horizon < 4096 * slot) {
    horizon <<= 1;
  }
  // Firing population: over one serialization + propagation window a busy
  // directed port fires one serialization-done event plus one delivery per
  // MTU packet on the wire. This estimates how densely events fire, not how
  // many are pending: a port keeps only its wire's head delivery filed
  // (Port::DeliverHeadInFlight), yet the others fire at the same spacing.
  uint64_t population = 0;
  for (const DuplexLink& link : links_) {
    for (const LinkEnd& end : {link.a, link.b}) {
      const Port* port = end.node->port(end.port);
      const TimePs serialization = port->rate().SerializationTime(mtu_bytes);
      population += 1;
      if (serialization > 0) {
        population += static_cast<uint64_t>(
            (port->propagation_delay() + serialization - 1) / serialization);
      }
    }
  }
  // Bucket width: the largest power of two not above the mean spacing of
  // that population over twice the (quantum + propagation) window. With
  // every port busy and their events spread evenly, a bucket's window then
  // sees about one firing; ports that fire in lockstep still share one. Clamped
  // to [32 ps, ~16.8 us] to keep degenerate fabrics harmless.
  const uint64_t spacing = std::max<uint64_t>(
      1, static_cast<uint64_t>(2 * (quantum + max_propagation_delay_)) / population);
  int width_bits = std::clamp(FloorLog2(spacing), 5, 24);
  // Bucket count: the horizon over the width, at most 2^20 buckets (4 MB of
  // list heads). If the cap binds, the width grows, never the horizon down.
  constexpr int kMaxBucketBits = 20;
  const int horizon_bits = FloorLog2(static_cast<uint64_t>(horizon));
  width_bits = std::max(width_bits, horizon_bits - kMaxBucketBits);
  const int bucket_count = width_bits >= horizon_bits ? 1 : 1 << (horizon_bits - width_bits);
  return sim_->ConfigureCalendar(width_bits, bucket_count);
}

}  // namespace themis
