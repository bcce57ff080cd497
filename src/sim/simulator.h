// The simulation executive: owns the clock, the event queue, and the RNG.
//
// Every model object holds a Simulator* and schedules work through it. The
// executive is single-threaded by design; determinism comes from integer
// time plus FIFO tie-breaking in the event queue.
//
// Two scheduling tiers (see event_queue.h): plain Schedule()/ScheduleAt()
// events and cancellable timers (Timer, PeriodicTimer, ScheduleTimer) share
// one cancellable binary heap; line-rate one-shots (ScheduleSerialization,
// SchedulePortEvent) ride a calendar queue sized to the fabric's event
// firing density. Both tiers draw sequence numbers from the same counter,
// so the firing order — and therefore every fixed-seed trace — is
// identical to a single global heap.

#ifndef THEMIS_SRC_SIM_SIMULATOR_H_
#define THEMIS_SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace themis {

class TraceSink;  // src/telemetry/trace.h; the executive only carries the pointer

class Simulator {
 public:
  // A registered dispatcher decodes and executes one tagged line-rate event.
  using LineRateDispatcher = void (*)(Simulator& sim, uint64_t tag);

  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePs now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `cb` after `delay` (>= 0) from the current time.
  void Schedule(TimePs delay, EventQueue::Callback cb) {
    queue_.ScheduleAt(now_ + delay, std::move(cb));
  }

  // Schedules `cb` at absolute time `at` (>= now()).
  void ScheduleAt(TimePs at, EventQueue::Callback cb) {
    queue_.ScheduleAt(at, std::move(cb));
  }

  // Packet-path variants: statically reject any capture too large for the
  // callback's inline buffer, so the per-event path never allocates.
  template <typename F>
  void ScheduleInline(TimePs delay, F&& f) {
    queue_.ScheduleAt(now_ + delay, EventCallback::MustInline(std::forward<F>(f)));
  }

  template <typename F>
  void ScheduleAtInline(TimePs at, F&& f) {
    queue_.ScheduleAt(at, EventCallback::MustInline(std::forward<F>(f)));
  }

  // Line-rate fast path: one-shot events at most a serialization quantum
  // plus a propagation delay out — the port serialization/delivery chain and
  // NIC line holds. Rides the calendar tier (O(1) insert/pop) when one is
  // configured and the deadline is within its horizon; falls back to the
  // heap otherwise. Inline-only, like ScheduleInline.
  template <typename F>
  void ScheduleSerialization(TimePs delay, F&& f) {
    queue_.ScheduleLineRate(now_ + delay, EventCallback::MustInline(std::forward<F>(f)));
  }

  // Tagged line-rate event: no callback at all — `tag` (non-zero) encodes
  // the port and event kind, and the dispatcher registered via
  // SetLineRateDispatcher decodes it at fire time. Same tier routing as
  // ScheduleSerialization; entries beyond the calendar horizon ride the heap
  // wrapped in a self-dispatching callback.
  void SchedulePortEvent(TimePs delay, uint64_t tag) {
    SchedulePortEventAt(now_ + delay, ReserveSeq(), tag);
  }

  // Reserves the sequence number an event scheduled now would carry, for an
  // entry the caller files later with SchedulePortEventAt (see EventQueue).
  uint64_t ReserveSeq() { return queue_.ReserveSeq(); }

  // Tagged line-rate event at absolute time `at` under a reserved `seq`. It
  // fires exactly where an event scheduled at reservation time would have,
  // provided (at, seq) does not precede the event now executing. Heap
  // fallback keeps the same seq.
  void SchedulePortEventAt(TimePs at, uint64_t seq, uint64_t tag) {
    assert(at >= now_);
    if (!queue_.ScheduleLineRateTagged(at, seq, tag)) {
      queue_.ScheduleAtSeq(at, seq, EventCallback::MustInline([this, tag] {
        line_rate_dispatcher_(*this, tag);
      }));
    }
  }

  // Installs the decoder for tagged events (Port::Dispatch; tests may
  // install their own). One per simulator; installing is idempotent.
  void SetLineRateDispatcher(LineRateDispatcher dispatcher) {
    line_rate_dispatcher_ = dispatcher;
  }

  // Sizes the calendar tier; called by Network::AutoSizeScheduler at build
  // time. See EventQueue.
  bool ConfigureCalendar(int width_bits, int bucket_count) {
    return queue_.ConfigureCalendar(width_bits, bucket_count);
  }

  // Read-only queue access for telemetry gauges and tier-occupancy stats.
  const EventQueue& queue() const { return queue_; }

  // Cancellable timer entries on the heap; Cancel is O(log n) and a
  // cancelled entry leaves no residue in the queue.
  TimerId ScheduleTimer(TimePs delay, EventQueue::Callback cb) {
    return queue_.ScheduleTimer(now_ + delay, std::move(cb));
  }

  TimerId ScheduleTimerAt(TimePs at, EventQueue::Callback cb) {
    return queue_.ScheduleTimer(at, std::move(cb));
  }

  bool CancelTimer(TimerId id) { return queue_.CancelTimer(id); }

  // Runs until the event queue drains or Stop() is called. Returns the
  // number of events executed.
  uint64_t Run() { return RunUntil(kTimeInfinity); }

  // Runs until the queue drains, Stop() is called, or the next event would
  // fire after `deadline`. The clock never exceeds `deadline`.
  //
  // Unless Stop() ended the run, the clock is advanced to `deadline` on
  // return (even if the queue drained or the next event lies beyond it), so
  // callers measuring durations after a deadline-bounded run read the full
  // window rather than the timestamp of the last event that happened to
  // fire. A Stop()ed run keeps now() at the stopping event's time.
  uint64_t RunUntil(TimePs deadline) {
    stopped_ = false;
    uint64_t executed = 0;
    TimePs t = 0;
    EventQueue::Callback cb;
    uint64_t tag = 0;
    // One event per iteration, in (time, seq) order across all tiers. A
    // tagged calendar entry pops as its tag and goes to the dispatcher;
    // everything else pops as its callback.
    while (!stopped_ && queue_.PopEvent(deadline, &t, &cb, &tag)) {
      now_ = t;
      if (tag != 0) {
        line_rate_dispatcher_(*this, tag);
      } else {
        cb();
      }
      ++executed;
    }
    if (!stopped_ && deadline != kTimeInfinity && now_ < deadline) {
      now_ = deadline;
    }
    events_executed_ += executed;
    return executed;
  }

  // Requests the current Run()/RunUntil() loop to return after the event in
  // progress completes.
  void Stop() { stopped_ = true; }

  bool HasPendingEvents() const { return !queue_.empty(); }
  uint64_t events_executed() const { return events_executed_; }
  uint64_t events_scheduled() const { return queue_.total_scheduled(); }

  // Telemetry attachment point (src/telemetry): record sites reach the sink
  // through the simulator every model object already holds. Null (the
  // default) means tracing is off; the sink must outlive the simulation.
  TraceSink* trace_sink() const { return trace_sink_; }
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

 private:
  TimePs now_ = 0;
  bool stopped_ = false;
  uint64_t events_executed_ = 0;
  EventQueue queue_;
  Rng rng_;
  TraceSink* trace_sink_ = nullptr;
  LineRateDispatcher line_rate_dispatcher_ = nullptr;
};

// A cancellable, re-armable one-shot timer. Cancel() and re-Arm()
// physically remove the pending heap entry, so no superseded no-op event is
// left behind to be popped later.
class Timer {
 public:
  using Callback = std::function<void()>;

  Timer(Simulator* sim, Callback cb) : sim_(sim), callback_(std::move(cb)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { Cancel(); }

  // Arms (or re-arms) the timer to fire `delay` from now.
  void Arm(TimePs delay) {
    if (armed_) {
      sim_->CancelTimer(id_);
    }
    armed_ = true;
    deadline_ = sim_->now() + delay;
    id_ = sim_->ScheduleTimerAt(deadline_, EventCallback::MustInline([this] { OnFire(); }));
  }

  void Cancel() {
    if (armed_) {
      sim_->CancelTimer(id_);
      armed_ = false;
    }
  }

  bool armed() const { return armed_; }
  TimePs deadline() const { return deadline_; }

 private:
  void OnFire() {
    armed_ = false;  // before the callback, which may re-Arm
    callback_();
  }

  Simulator* sim_;
  Callback callback_;
  TimerId id_;
  bool armed_ = false;
  TimePs deadline_ = 0;
};

// A fixed-period repeating timer on the cancellable heap. Stops when
// Cancel()ed or destroyed.
class PeriodicTimer {
 public:
  using Callback = std::function<void()>;

  PeriodicTimer(Simulator* sim, Callback cb) : sim_(sim), callback_(std::move(cb)) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  ~PeriodicTimer() { Cancel(); }

  void Start(TimePs period) {
    CancelPending();
    period_ = period;
    running_ = true;
    ++epoch_;
    ScheduleNext();
  }

  void Cancel() {
    CancelPending();
    running_ = false;
    ++epoch_;
  }

  bool running() const { return running_; }
  TimePs period() const { return period_; }

 private:
  void CancelPending() {
    if (pending_) {
      sim_->CancelTimer(id_);
      pending_ = false;
    }
  }

  void ScheduleNext() {
    pending_ = true;
    id_ = sim_->ScheduleTimer(period_, EventCallback::MustInline([this] { OnFire(); }));
  }

  void OnFire() {
    pending_ = false;
    const uint64_t epoch = epoch_;
    callback_();
    // The callback may have cancelled or restarted the timer; only chain the
    // next tick if neither happened.
    if (epoch == epoch_ && running_) {
      ScheduleNext();
    }
  }

  Simulator* sim_;
  Callback callback_;
  TimerId id_;
  TimePs period_ = 0;
  uint64_t epoch_ = 0;
  bool running_ = false;
  bool pending_ = false;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_SIMULATOR_H_
