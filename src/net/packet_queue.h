// Freelist-backed packet queues for the switch/port fast path.
//
// Port moves every packet through three FIFO queues (control, data,
// in-flight; the last also carries each packet's delivery event key).
// Backing them with std::deque means the allocator is hit every time a
// deque block is carved or returned, on the hottest path in the simulator.
// A PacketArena recycles fixed-size nodes through a freelist: after
// warm-up, pushing and popping packets performs no allocation at all.
// The arena is per-simulator — Network owns one and shares it across every
// node it creates — so nodes freed by one port are reused by any other,
// and nothing is shared between concurrently running experiments
// (SweepRunner determinism contract).

#ifndef THEMIS_SRC_NET_PACKET_QUEUE_H_
#define THEMIS_SRC_NET_PACKET_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace themis {

// The (time, seq) event key a keyed queue records for each packet behind
// its head (see PacketQueue::push_back_keyed).
struct DeliveryKey {
  TimePs time = 0;
  uint64_t seq = 0;
};

class PacketArena {
 public:
  // One cache line: the packet, the link to the next node, and that next
  // node's delivery key. Storing the successor's key beside the `next` link
  // means push_back_keyed writes only the tail node it already touches, and
  // pop_front_keyed reads only the head node.
  struct alignas(64) Node {
    Packet pkt;
    Node* next = nullptr;
    DeliveryKey next_key;  // keyed queues only: the key of `next`
  };
  static_assert(sizeof(Node) == 64, "arena node must stay one cache line");

  PacketArena() = default;
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  Node* Alloc() {
    if (free_head_ != nullptr) {
      Node* node = free_head_;
      free_head_ = node->next;
      ++recycled_;
      return node;
    }
    if (next_in_slab_ == kSlabNodes) {
      slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
      next_in_slab_ = 0;
    }
    ++fresh_;
    return &slabs_.back()[next_in_slab_++];
  }

  void Free(Node* node) {
    node->next = free_head_;
    free_head_ = node;
  }

  // Nodes carved from slabs / served from the freelist, for tests and
  // memory accounting.
  size_t fresh_allocations() const { return fresh_; }
  size_t recycled_allocations() const { return recycled_; }
  size_t slab_count() const { return slabs_.size(); }

 private:
  static constexpr size_t kSlabNodes = 256;

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_head_ = nullptr;
  size_t next_in_slab_ = kSlabNodes;  // forces the first slab on first Alloc
  size_t fresh_ = 0;
  size_t recycled_ = 0;
};

// FIFO of packets drawing nodes from a PacketArena. The arena must outlive
// the queue.
class PacketQueue {
 public:
  explicit PacketQueue(PacketArena* arena) : arena_(arena) {}

  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  ~PacketQueue() { clear(); }

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }

  void push_back(const Packet& pkt) {
    PacketArena::Node* node = arena_->Alloc();
    node->pkt = pkt;
    node->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = node;
    } else {
      head_ = node;
    }
    tail_ = node;
    ++size_;
  }

  // Keyed FIFO (Port::in_flight_): appends `pkt` whose pending event would
  // carry `key`. Returns true if the queue was empty — the caller schedules
  // that event itself; otherwise the key waits in the predecessor's node
  // until pop_front_keyed hands it out.
  bool push_back_keyed(const Packet& pkt, DeliveryKey key) {
    const bool was_empty = tail_ == nullptr;
    if (!was_empty) {
      tail_->next_key = key;
    }
    push_back(pkt);
    return was_empty;
  }

  // Moves the head packet into *pkt and pops it. Returns true, with the new
  // head's key in *next_key, if another packet follows.
  bool pop_front_keyed(Packet* pkt, DeliveryKey* next_key) {
    assert(head_ != nullptr);
    *pkt = head_->pkt;
    const bool has_next = head_->next != nullptr;
    if (has_next) {
      *next_key = head_->next_key;
    }
    pop_front();
    return has_next;
  }

  Packet& front() {
    assert(head_ != nullptr);
    return head_->pkt;
  }
  const Packet& front() const {
    assert(head_ != nullptr);
    return head_->pkt;
  }

  void pop_front() {
    assert(head_ != nullptr);
    PacketArena::Node* node = head_;
    head_ = node->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    arena_->Free(node);
    --size_;
  }

  void clear() {
    while (head_ != nullptr) {
      pop_front();
    }
  }

 private:
  PacketArena* arena_;
  PacketArena::Node* head_ = nullptr;
  PacketArena::Node* tail_ = nullptr;
  size_t size_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_NET_PACKET_QUEUE_H_
