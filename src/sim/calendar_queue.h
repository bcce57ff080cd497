// A calendar queue for line-rate one-shot events.
//
// Port serialization/delivery events dominate the event stream: two fire per
// packet, both at most one serialization quantum plus one propagation delay
// after the packet starts serializing. Every busy port contributes such a
// chain, so the fabric as a whole fires them at a spacing of roughly
// (quantum + propagation) / in-flight population. Few are pending at once,
// though: a port files a TxDone when it starts a packet and keeps one
// delivery pending for the head of its wire, not one per packet on the wire
// (Port::DeliverHeadInFlight). A calendar queue whose bucket width is tuned
// to that fabric-wide spacing (Network::AutoSizeScheduler) makes this hot
// path O(1) per event: insert links a node into the target bucket, and the
// cursor collects at most one bucket of a few entries per pop.
//
// Determinism contract: every entry carries the sequence number handed out
// by the owning EventQueue, buckets drain through a small ready heap ordered
// by (time, seq), and the queue merges that ready heap with its binary heap.
// The observable firing order is bit-identical to a single global heap.
//
// Entries are non-cancellable (serialization/delivery chains never cancel),
// which is what keeps the tier this simple: no generations, no tombstones —
// just small (time, seq, tag, slot) keys moved bucket -> ready.
//
// Storage: each bucket is an intrusive singly-linked list threaded through
// one flat node pool, with a uint32 head per bucket; collected nodes return
// to a freelist threaded through the same `next` field. An empty bucket
// therefore costs 4 bytes, which is what lets the geometry use tens of
// thousands of narrow buckets. Insertion order inside a bucket is
// irrelevant: the ready heap restores (time, seq) order on collection.
//
// Cursor policy: the cursor only advances while collecting. When no entry is
// bucketed, the next insert re-anchors the cursor half a horizon behind the
// event, so the tier stays effective after idle stretches and the horizon
// window always brackets the traffic that is actually in flight. Events
// beyond the horizon are rejected by Accepts() and the caller routes them to
// the heap tier instead (overflow-to-heap).
//
// Tagged entries: the port serialization/delivery chain needs no callback at
// all — the event is fully described by a non-zero uint64 tag (port pointer +
// event kind) that a registered dispatcher decodes. Tagged entries skip
// callback construction/move/invoke entirely and pop as their bare tag
// (PopReadyTag). tag == 0 means "plain callback entry".
//
// SoA split: bucket nodes and the ready heap hold 32-byte POD keys
// (time, seq, tag, callback-slot); callbacks live in a side pool indexed by
// slot. Tagged entries (the vast majority at line rate) never touch the pool,
// and a callback entry moves its 64-byte InlineCallback exactly twice —
// pool-in at Schedule(), pool-out at PopReady() — instead of riding through
// every bucket move and heap sift.

#ifndef THEMIS_SRC_SIM_CALENDAR_QUEUE_H_
#define THEMIS_SRC_SIM_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace themis {

class CalendarQueue {
 public:
  using Callback = EventCallback;

  CalendarQueue() = default;
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  bool configured() const { return width_bits_ > 0; }
  TimePs bucket_width() const { return configured() ? (TimePs{1} << width_bits_) : 0; }
  int bucket_count() const { return static_cast<int>(heads_.size()); }
  TimePs horizon() const { return horizon_; }

  // (Re)configures the bucket array. Only legal while the queue is empty;
  // returns false (and leaves the configuration unchanged) otherwise.
  // `width_bits`: bucket width is 2^width_bits ps. `bucket_count`: power of
  // two. Both are clamped by the caller's policy, not here.
  bool Configure(int width_bits, int bucket_count) {
    if (pending() != 0) {
      return false;
    }
    assert(width_bits > 0 && width_bits < 40);
    assert(bucket_count > 0 && (bucket_count & (bucket_count - 1)) == 0);
    width_bits_ = width_bits;
    mask_ = static_cast<uint64_t>(bucket_count - 1);
    heads_.assign(static_cast<size_t>(bucket_count), kNil);
    occupancy_.assign(static_cast<size_t>((bucket_count + 63) / 64), 0);
    horizon_ = static_cast<TimePs>(bucket_count) << width_bits_;
    cal_time_ = 0;
    return true;
  }

  // True if an entry firing at `at` can be housed by this tier given the
  // current cursor. The caller routes rejected entries to the heap tier.
  bool Accepts(TimePs at) const {
    if (!configured()) {
      return false;
    }
    if (in_bucket_count_ == 0) {
      return true;  // Schedule() re-anchors the cursor around `at`
    }
    return at < cal_time_ + horizon_;  // below-cursor entries go to ready
  }

  // Inserts an entry firing at absolute time `at`, carrying the caller's
  // queue-wide sequence number. Pre: Accepts(at).
  void Schedule(TimePs at, uint64_t seq, Callback cb) {
    ScheduleEntry(Entry{at, seq, 0, AllocSlot(std::move(cb)), kNil});
  }

  // Tagged (callback-free) variant for the port event chain. `tag` must be
  // non-zero; the owner's dispatcher decodes it. Pre: Accepts(at).
  void ScheduleTagged(TimePs at, uint64_t seq, uint64_t tag) {
    assert(tag != 0);
    ScheduleEntry(Entry{at, seq, tag, kNoSlot, kNil});
  }

  // Moves every entry that could fire at or before `bound` (given what is
  // already in the ready heap) into the ready heap. Must be called before
  // ReadyTime()/ReadySeq()/PopReady(). Collecting a bucket may pull entries
  // later than `bound` into ready early — harmless, since ready orders by
  // (time, seq).
  void CollectDue(TimePs bound) {
    if (in_bucket_count_ == 0) {
      return;
    }
    for (;;) {
      TimePs target = bound;
      if (!ready_.empty() && ready_.front().time < target) {
        target = ready_.front().time;
      }
      if (in_bucket_count_ == 0 || cal_time_ > target) {
        return;  // everything still bucketed fires after `target`
      }
      const size_t cur = BucketIndex(cal_time_);
      if (IsOccupied(cur)) {
        CollectBucket(cur);
        cal_time_ += bucket_width();
        continue;
      }
      // Jump over empty buckets: to the next occupied bucket's window, but
      // never past the target's window (entries inserted later must still
      // find the cursor at or below their time).
      const int next = NextOccupiedBucket(static_cast<int>(cur));
      int dist = next - static_cast<int>(cur);
      if (dist <= 0) {
        dist += bucket_count();
      }
      const TimePs jump = cal_time_ + static_cast<TimePs>(dist) * bucket_width();
      const TimePs cap = target > kTimeInfinity - 2 * bucket_width()
                             ? jump
                             : AlignDown(target) + bucket_width();
      cal_time_ = std::min(jump, cap);
    }
  }

  bool HasReady() const { return !ready_.empty(); }

  // Pre: HasReady().
  TimePs ReadyTime() const { return ready_.front().time; }
  uint64_t ReadySeq() const { return ready_.front().seq; }
  bool ReadyIsTagged() const { return ready_.front().tag != 0; }

  // Pre: HasReady(). Tagged entries yield an empty callback.
  Callback PopReady(TimePs* time_out) {
    std::pop_heap(ready_.begin(), ready_.end(), After{});
    const Entry e = ready_.back();
    ready_.pop_back();
    *time_out = e.time;
    if (e.slot == kNoSlot) {
      return Callback{};
    }
    Callback cb = std::move(cb_pool_[e.slot]);
    free_slots_.push_back(e.slot);
    return cb;
  }

  // Pre: HasReady() && ReadyIsTagged(). Pops the ready tagged entry and
  // returns its tag.
  uint64_t PopReadyTag(TimePs* time_out) {
    std::pop_heap(ready_.begin(), ready_.end(), After{});
    const Entry e = ready_.back();
    ready_.pop_back();
    *time_out = e.time;
    return e.tag;
  }

  size_t pending() const { return in_bucket_count_ + ready_.size(); }

  // Deterministic occupancy counters: buckets the cursor collected and the
  // entries they held. Their ratio is the mean collected bucket size, which
  // bounds the ready heap's depth; the geometry keeps it in single digits.
  uint64_t buckets_collected() const { return buckets_collected_; }
  uint64_t entries_collected() const { return entries_collected_; }
  // Nodes carved since the last Clear(): the most entries ever bucketed at
  // once, since collected nodes are recycled before the pool grows.
  size_t node_pool_size() const { return nodes_.size(); }

  void Clear() {
    std::fill(heads_.begin(), heads_.end(), kNil);
    std::fill(occupancy_.begin(), occupancy_.end(), 0);
    nodes_.clear();  // keeps capacity; the freelist restarts empty
    free_node_ = kNil;
    ready_.clear();
    cb_pool_.clear();
    free_slots_.clear();
    in_bucket_count_ = 0;
    cal_time_ = 0;
  }

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  static constexpr uint32_t kNil = ~uint32_t{0};  // end of a node list

  // 32-byte POD key: this is what bucket nodes store and the ready heap
  // sifts. `next` sits in what would otherwise be tail padding.
  struct Entry {
    TimePs time;
    uint64_t seq;
    uint64_t tag;   // non-zero: dispatcher-decoded port event (no callback)
    uint32_t slot;  // cb_pool_ index, kNoSlot for tagged entries
    uint32_t next;  // nodes_ index of the next node in the list, kNil ends it
  };
  static_assert(sizeof(Entry) == 32, "bucket node must stay 32 bytes");

  uint32_t AllocSlot(Callback cb) {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      cb_pool_[slot] = std::move(cb);
      return slot;
    }
    cb_pool_.push_back(std::move(cb));
    return static_cast<uint32_t>(cb_pool_.size() - 1);
  }

  void ScheduleEntry(Entry e) {
    if (in_bucket_count_ == 0) {
      // Nothing bucketed: re-anchor so the entry sits mid-horizon. Entries in
      // the ready heap are position-independent, so moving the cursor (even
      // backwards) is exact. Keeps the tier O(1) after idle stretches.
      cal_time_ = std::max<TimePs>(0, AlignDown(e.time) - (horizon_ >> 1));
    }
    if (e.time < cal_time_) {
      // Cursor already passed this window; the ready heap orders it exactly.
      PushReady(std::move(e));
      return;
    }
    assert(e.time - cal_time_ < horizon_ && "caller must check Accepts()");
    const size_t idx = BucketIndex(e.time);
    e.next = heads_[idx];
    heads_[idx] = AllocNode(e);
    SetOccupied(idx, true);
    ++in_bucket_count_;
  }

  uint32_t AllocNode(const Entry& e) {
    if (free_node_ != kNil) {
      const uint32_t node = free_node_;
      free_node_ = nodes_[node].next;
      nodes_[node] = e;
      return node;
    }
    nodes_.push_back(e);
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  // Max-comparator for std::push_heap/pop_heap (min-heap by (time, seq)).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  TimePs AlignDown(TimePs t) const { return t & ~(bucket_width() - 1); }

  size_t BucketIndex(TimePs t) const {
    return static_cast<size_t>((static_cast<uint64_t>(t) >> width_bits_) & mask_);
  }

  bool IsOccupied(size_t idx) const { return heads_[idx] != kNil; }

  void SetOccupied(size_t idx, bool occupied) {
    uint64_t& word = occupancy_[idx >> 6];
    const uint64_t bit = uint64_t{1} << (idx & 63);
    if (occupied) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }

  void PushReady(Entry e) {
    ready_.push_back(std::move(e));
    std::push_heap(ready_.begin(), ready_.end(), After{});
  }

  // Moves bucket `idx`'s list into the ready heap and its nodes onto the
  // freelist: no steady-state allocation.
  void CollectBucket(size_t idx) {
    uint32_t node = heads_[idx];
    heads_[idx] = kNil;
    uint64_t collected = 0;
    while (node != kNil) {
      Entry& e = nodes_[node];
      const uint32_t next = e.next;
      PushReady(e);
      e.next = free_node_;
      free_node_ = node;
      node = next;
      ++collected;
    }
    in_bucket_count_ -= collected;
    entries_collected_ += collected;
    ++buckets_collected_;
    SetOccupied(idx, false);
  }

  // First occupied bucket in circular order strictly after `from`; `from`
  // itself if it wraps all the way around. Pre: in_bucket_count_ > 0.
  int NextOccupiedBucket(int from) const {
    const int n = bucket_count();
    for (int probe = from + 1; probe < n; ++probe) {
      // Word-at-a-time scan via the occupancy bitmap.
      const uint64_t word = occupancy_[static_cast<size_t>(probe) >> 6] &
                            (~uint64_t{0} << (probe & 63));
      if (word != 0) {
        return (probe & ~63) + __builtin_ctzll(word);
      }
      probe = (probe | 63);  // advance to the next word boundary
    }
    for (int probe = 0; probe <= from; ++probe) {
      const uint64_t word = occupancy_[static_cast<size_t>(probe) >> 6] &
                            (~uint64_t{0} << (probe & 63));
      if (word != 0) {
        const int hit = (probe & ~63) + __builtin_ctzll(word);
        if (hit <= from) {
          return hit;
        }
      }
      probe = (probe | 63);
    }
    assert(false && "NextOccupiedBucket called on an empty calendar");
    return from;
  }

  int width_bits_ = 0;           // 0 = unconfigured, everything overflows
  uint64_t mask_ = 0;            // bucket_count - 1
  TimePs horizon_ = 0;           // bucket_count * bucket_width
  TimePs cal_time_ = 0;          // start of the cursor's bucket window
  size_t in_bucket_count_ = 0;   // entries currently in buckets
  uint64_t buckets_collected_ = 0;
  uint64_t entries_collected_ = 0;
  std::vector<uint32_t> heads_;      // per bucket: first node, kNil if empty
  std::vector<Entry> nodes_;         // node pool shared by every bucket
  uint32_t free_node_ = kNil;        // freelist head, threaded through `next`
  std::vector<uint64_t> occupancy_;  // one bit per bucket, for slot skipping
  std::vector<Entry> ready_;         // min-heap by (time, seq)
  std::vector<Callback> cb_pool_;    // callback side pool, indexed by Entry::slot
  std::vector<uint32_t> free_slots_;  // recycled cb_pool_ indices
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_CALENDAR_QUEUE_H_
