// A deterministic two-tier discrete-event queue.
//
// Events are (time, sequence, callback) triples. Ties on time are broken by
// insertion sequence so that a given schedule order always replays
// identically, which the reproduction relies on for bit-identical simulation
// traces across runs.
//
// Two tiers share one sequence counter:
//  * A cancellable binary heap holds every callback event: one-shot
//    ScheduleAt() events (workload arrivals, failure injections, calendar
//    overflow) and ScheduleTimer() timers (per-QP RTO re-arms, DCQCN
//    TI/TD/alpha ticks, NIC scheduler wake-ups). The heap sifts 24-byte
//    (time, seq, node) keys; callbacks stay put in a freelist node pool, and
//    each node records its heap position, so CancelTimer() removes the entry
//    in O(log n) and leaves no garbage event behind.
//  * ScheduleLineRate() — a calendar queue tuned to the fabric's event
//    firing density for the port serialization/delivery chain (the hot
//    path at fig1/fig5 scale). Insert and pop are O(1); entries beyond the
//    calendar horizon overflow to the heap.
// Pop() merges the tiers by (time, sequence), so the observable firing
// order is exactly what a single global heap would produce.
//
// Reserved sequence numbers: ReserveSeq() hands out the next sequence number
// without inserting anything, and the explicit-seq inserts
// (ScheduleLineRateTagged, ScheduleAtSeq) file an entry under it later. The
// firing order is the same as if the entry had been inserted at reservation
// time, provided it is inserted before the queue pops any event that its
// (time, seq) key precedes. Ports rely on this to keep one pending delivery
// per link (see Port::DeliverHeadInFlight).

#ifndef THEMIS_SRC_SIM_EVENT_QUEUE_H_
#define THEMIS_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/calendar_queue.h"
#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace themis {

// Handle to a pending cancellable timer. Generation-checked: a handle goes
// stale the moment its entry fires, is cancelled, or the queue is cleared.
struct TimerId {
  int32_t node = -1;
  uint32_t generation = 0;

  bool valid() const { return node >= 0; }
};

class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to fire at absolute time `at`. `at` must not be earlier
  // than the time of the most recently popped event.
  void ScheduleAt(TimePs at, Callback cb) { ScheduleAtSeq(at, next_seq_++, std::move(cb)); }

  // Line-rate fast path: one-shot events a serialization quantum or so out
  // (port serialization/delivery, NIC line holds) ride the calendar tier;
  // anything the calendar cannot house falls back to the heap.
  void ScheduleLineRate(TimePs at, Callback cb) {
    if (calendar_.Accepts(at)) {
      calendar_.Schedule(at, next_seq_++, std::move(cb));
      ++calendar_scheduled_;
    } else {
      ScheduleAt(at, std::move(cb));
    }
  }

  // Returns the next queue-wide sequence number, consumed as if an event had
  // been scheduled now; the caller files its entry later under it.
  uint64_t ReserveSeq() { return next_seq_++; }

  // Callback-free line-rate entry under `seq` (from ReserveSeq()), described
  // entirely by a non-zero `tag` the Simulator's dispatcher decodes. Returns
  // false when the calendar cannot house `at` — the caller must then wrap
  // the tag in a heap event under the same seq (ScheduleAtSeq; the heap tier
  // carries no tags).
  bool ScheduleLineRateTagged(TimePs at, uint64_t seq, uint64_t tag) {
    if (!calendar_.Accepts(at)) {
      return false;
    }
    calendar_.ScheduleTagged(at, seq, tag);
    ++calendar_scheduled_;
    return true;
  }

  // Heap entry under `seq` (from ReserveSeq()); counts as heap_scheduled().
  void ScheduleAtSeq(TimePs at, uint64_t seq, Callback cb) {
    Push(at, seq, std::move(cb));
    ++heap_scheduled_;
  }

  // Schedules a cancellable heap entry. The returned id stays valid until
  // the entry fires or is cancelled, or the queue is cleared.
  TimerId ScheduleTimer(TimePs at, Callback cb) {
    ++wheel_scheduled_;
    const uint32_t node = Push(at, next_seq_++, std::move(cb));
    return TimerId{static_cast<int32_t>(node), nodes_[node].generation};
  }

  // O(log n); returns false if the entry already fired or was cancelled.
  bool CancelTimer(TimerId id) {
    if (!id.valid() || static_cast<size_t>(id.node) >= nodes_.size()) {
      return false;
    }
    const uint32_t node = static_cast<uint32_t>(id.node);
    if (nodes_[node].generation != id.generation) {
      return false;
    }
    RemoveAt(nodes_[node].pos);
    FreeNode(node);
    return true;
  }

  // Sizes the calendar tier: bucket width 2^width_bits ps, `bucket_count`
  // (power of two) buckets. Only legal while the calendar is empty — the
  // topology builders call this at Network build time, before traffic.
  // Returns false (configuration unchanged) if entries are pending.
  bool ConfigureCalendar(int width_bits, int bucket_count) {
    return calendar_.Configure(width_bits, bucket_count);
  }

  bool empty() const { return heap_.empty() && calendar_.pending() == 0; }
  size_t size() const { return heap_.size() + calendar_.pending(); }

  // Time of the earliest pending event. Queue must be non-empty.
  TimePs NextTime() {
    Sync();
    return CalendarFirst() ? calendar_.ReadyTime() : heap_.front().time;
  }

  // Removes the earliest event, advancing `*time_out`, and returns its
  // callback (empty for a tagged calendar entry). Queue must be non-empty.
  Callback Pop(TimePs* time_out) {
    Callback cb;
    uint64_t tag = 0;
    PopEvent(kTimeInfinity, time_out, &cb, &tag);
    return cb;
  }

  // The run loop's pop: pops the earliest event only if it fires at or
  // before `deadline`, and returns false (leaving `*cb` and `*tag`
  // untouched) if the queue is empty or the earliest event fires later. A
  // tagged calendar entry comes out as its non-zero tag in `*tag` (leaving
  // `*cb` untouched) for the Simulator's dispatcher to decode; any other
  // event comes out as its callback in `*cb`, with `*tag` set to 0.
  bool PopEvent(TimePs deadline, TimePs* time_out, Callback* cb, uint64_t* tag) {
    if (empty()) {
      return false;
    }
    Sync();
    if (CalendarFirst()) {
      if (calendar_.ReadyTime() > deadline) {
        return false;
      }
      if (calendar_.ReadyIsTagged()) {
        *tag = calendar_.PopReadyTag(time_out);
      } else {
        *tag = 0;
        *cb = calendar_.PopReady(time_out);
      }
      return true;
    }
    const Key top = heap_.front();
    if (top.time > deadline) {
      return false;
    }
    RemoveAt(0);
    *time_out = top.time;
    *tag = 0;
    *cb = std::move(nodes_[top.node].callback);
    FreeNode(top.node);
    return true;
  }

  // Drops every pending event. Freeing a node bumps its generation, so every
  // outstanding TimerId goes stale.
  void Clear() {
    for (const Key& key : heap_) {
      FreeNode(key.node);
    }
    heap_.clear();
    calendar_.Clear();
  }

  uint64_t total_scheduled() const { return next_seq_; }
  // Schedule counts by API: heap_scheduled() counts ScheduleAt() calls plus
  // calendar overflow; wheel_scheduled() counts cancellable timer arms
  // (ScheduleTimer() calls); calendar_scheduled() counts line-rate entries
  // the calendar housed.
  uint64_t heap_scheduled() const { return heap_scheduled_; }
  uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  uint64_t calendar_scheduled() const { return calendar_scheduled_; }
  // Per-tier occupancy, for the `sim.*_pending` telemetry gauges.
  size_t heap_pending() const { return heap_.size(); }
  size_t calendar_pending() const { return calendar_.pending(); }
  const CalendarQueue& calendar() const { return calendar_; }

 private:
  // 24-byte heap key; the callback stays in nodes_[node].
  struct Key {
    TimePs time;
    uint64_t seq;
    uint32_t node;

    bool Before(const Key& other) const {
      return time < other.time || (time == other.time && seq < other.seq);
    }
  };
  static_assert(sizeof(Key) == 24, "heap key must stay 24 bytes");

  struct Node {
    Callback callback;
    uint32_t pos = 0;  // heap_ index while live; next free node while free
    uint32_t generation = 0;
  };

  static constexpr uint32_t kNil = ~uint32_t{0};

  // Pulls every calendar entry that could precede the heap top into the
  // calendar's ready heap, so the two-way (time, seq) merge is exact.
  void Sync() { calendar_.CollectDue(heap_.empty() ? kTimeInfinity : heap_.front().time); }

  // True if the calendar's ready top precedes the heap top. Pre: Sync()ed
  // and not empty.
  bool CalendarFirst() const {
    if (!calendar_.HasReady()) {
      return false;
    }
    if (heap_.empty()) {
      return true;
    }
    const Key& top = heap_.front();
    const TimePs t = calendar_.ReadyTime();
    return t < top.time || (t == top.time && calendar_.ReadySeq() < top.seq);
  }

  uint32_t Push(TimePs at, uint64_t seq, Callback cb) {
    uint32_t node = free_node_;
    if (node != kNil) {
      free_node_ = nodes_[node].pos;
      nodes_[node].callback = std::move(cb);
    } else {
      node = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(cb)});
    }
    heap_.push_back(Key{at, seq, node});
    SiftUp(heap_.size() - 1);
    return node;
  }

  void FreeNode(uint32_t node) {
    Node& n = nodes_[node];
    n.callback.Reset();
    ++n.generation;
    n.pos = free_node_;
    free_node_ = node;
  }

  // Removes the key at heap index `i` (its node is the caller's to free).
  void RemoveAt(size_t i) {
    const Key last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) {
      return;
    }
    Place(i, last);
    if (i > 0 && last.Before(heap_[(i - 1) / 2])) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  void Place(size_t i, const Key& key) {
    heap_[i] = key;
    nodes_[key.node].pos = static_cast<uint32_t>(i);
  }

  void SiftUp(size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!key.Before(heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, key);
  }

  void SiftDown(size_t i) {
    const Key key = heap_[i];
    const size_t n = heap_.size();
    while (true) {
      size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && heap_[child + 1].Before(heap_[child])) {
        ++child;
      }
      if (!heap_[child].Before(key)) {
        break;
      }
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, key);
  }

  std::vector<Key> heap_;   // min-heap by (time, seq)
  std::vector<Node> nodes_;  // callback pool indexed by Key::node
  uint32_t free_node_ = kNil;  // freelist head, threaded through Node::pos
  CalendarQueue calendar_;
  uint64_t next_seq_ = 0;
  uint64_t heap_scheduled_ = 0;
  uint64_t wheel_scheduled_ = 0;
  uint64_t calendar_scheduled_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_EVENT_QUEUE_H_
