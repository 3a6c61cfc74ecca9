// Single-threaded discrete-event simulator: a clock plus an event queue.
// Components schedule callbacks; Run() drains events in time order. Inline
// events (DESIGN.md §12) are the callback-free alternative for the hottest
// schedules: a handler pointer and an int, fired at exactly the (time,
// sequence) position a queued callback scheduled at the same moment takes.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/time.h"

namespace deepplan {

// Receiver of inline events: OnInlineEvent(arg) runs as the event's callback.
class InlineEventHandler {
 public:
  virtual void OnInlineEvent(int arg) = 0;

 protected:
  ~InlineEventHandler() = default;
};

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  // Picks up the process-wide DEEPPLAN_PROGRESS heartbeat period (0 when
  // unset/disabled).
  Simulator();

  Nanos now() const { return now_; }

  // Schedules `cb` to run `delay` after the current time (delay >= 0).
  EventQueue::EventId ScheduleAfter(Nanos delay, Callback cb);
  // Schedules `cb` at absolute simulated time `when` (>= now()).
  EventQueue::EventId ScheduleAt(Nanos when, Callback cb);
  bool Cancel(EventQueue::EventId id) { return queue_.Cancel(id); }

  // Schedules handler->OnInlineEvent(arg) `delay` after the current time
  // (delay >= 0). It takes the sequence number a ScheduleAfter made now would
  // take, so it fires in the same (time, sequence) order, but it allocates
  // nothing and holds no queue slot. It cannot be cancelled, and scheduling
  // one during a catch-up is a DP_CHECK failure: a replay only fires and
  // splices queue events (DESIGN.md §12).
  void ScheduleInlineAfter(Nanos delay, InlineEventHandler* handler, int arg);

  // Runs until no event is pending. Returns the final clock value.
  Nanos Run();
  // Runs until no event is pending or the clock would pass `deadline`;
  // events at exactly `deadline` still fire.
  Nanos RunUntil(Nanos deadline);

  // Pending events count queued and inline ones alike.
  bool idle() const { return queue_.empty() && inline_.empty(); }
  std::size_t pending_events() const { return queue_.size() + inline_.size(); }
  // Earliest pending event time, queued or inline; must not be called when
  // idle().
  Nanos NextEventTime() const;
  // Queue introspection (slot reuse / scheduling volume) for tests + benches;
  // inline events are not in it.
  const EventQueue& event_queue() const { return queue_; }
  // Queue events popped and fired by this simulator over its lifetime.
  std::uint64_t events_dispatched() const { return dispatched_; }
  // Inline events fired over its lifetime.
  std::uint64_t inline_events_dispatched() const { return inline_dispatched_; }

  // Live progress heartbeat (DEEPPLAN_PROGRESS=<seconds>, fractional ok):
  // when enabled, the dispatch loop emits a stderr line at most once per
  // period — simulated time, events/sec, requests retired, RSS. Off by
  // default so every bench golden (stdout *and* stderr formats) is
  // untouched. The per-sim setter exists so tests need not mutate the
  // process environment.
  void set_progress_period_for_testing(Nanos period) {
    progress_period_ns_ = period;
  }
  // Components expose "requests retired so far" to the heartbeat by
  // registering a counter location (Server registers its finished-request
  // count; the heartbeat prints the sum). The pointee must stay valid until
  // removed; single-threaded like the rest of the simulator.
  void AddProgressCounter(const std::uint64_t* counter);
  void RemoveProgressCounter(const std::uint64_t* counter);

  // --- Catch-up of fast-forwarded work (DESIGN.md §16) ---
  //
  // A component that skipped a stretch of its own events (a fast-forwarded
  // cold start) can later replay them exactly. Its events interact with the
  // rest of the simulation only through equal-time tie-breaks, which follow
  // schedule order; so while any replay may still be needed, the simulator
  // logs every dispatch with the schedule position it started at, and the
  // replay merges its own dispatches into that log by (time, sequence).

  // Sequence number the next Schedule will assign: the schedule position of
  // work that starts now.
  std::uint64_t next_seq() const { return queue_.next_seq(); }
  // Holds the dispatch log open from `start` (the skipped work's start time)
  // until the matching release.
  void HoldDispatchLog(Nanos start);
  void ReleaseDispatchLog(Nanos start);

  enum class CatchUpUntil {
    // Up to the current dispatch position: events at now() fire only when
    // they precede the event being dispatched.
    kCurrentDispatch,
    // Strictly before now(): everything at now() is spliced.
    kBeforeNow,
  };
  // Replays skipped work in a side queue with the clock set back to `start`:
  // calls `body` as if at `start` and at schedule position `start_seq` (the
  // next_seq() taken when the work was skipped), dispatches the events it
  // schedules up to `until`, then runs `before_splice` (still on the side
  // queue, so it may cancel side events) and moves the remaining events into
  // the main queue at the positions the event-by-event run gives them. The
  // clock and queue are restored before returning. Not reentrant.
  void CatchUp(Nanos start, std::uint64_t start_seq, CatchUpUntil until,
               const std::function<void()>& body,
               const std::function<void()>& before_splice);
  // The main-queue id the last catch-up gave a side event it spliced, for
  // components that kept the side id (a fabric's completion events).
  EventQueue::EventId SplicedEventId(EventQueue::EventId side_id) const;
  bool catching_up() const { return catching_up_; }
  // Whether an event callback is running, from the main queue or from a
  // catch-up's side queue.
  bool in_dispatch() const { return dispatching_ || catching_up_; }
  // Whether every event at now() has fired: outside any dispatch, after a
  // drain that fired everything at now() (RunUntil fires its deadline's).
  bool drained_through_now() const {
    return !in_dispatch() && drained_through_ >= now_;
  }

 private:
  struct DispatchRecord {
    Nanos when;
    std::uint64_t seq;       // the dispatched event's sequence number
    std::uint64_t next_seq;  // queue position when its callback started
  };

  struct InlineEvent {
    Nanos when;
    std::uint64_t seq;  // reserved from queue_, so it orders against it
    InlineEventHandler* handler;
    int arg;
  };
  // Heap order: the top is the earliest (when, seq).
  static bool InlineLater(const InlineEvent& a, const InlineEvent& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  void MaybeEmitProgress();
  // Schedule position of events the current catch-up dispatch schedules.
  std::uint64_t CatchUpPosition();
  // A fresh sequence number in the gap just before main position `pos`.
  std::uint64_t SpliceSeq(std::uint64_t pos);

  Nanos now_ = 0;
  EventQueue queue_;
  std::uint64_t dispatched_ = 0;
  // Pending inline events, a min-heap by (when, seq). Few at a time: a
  // server keeps at most one per GPU.
  std::vector<InlineEvent> inline_;
  std::uint64_t inline_dispatched_ = 0;
  Nanos progress_period_ns_;  // 0 = heartbeat disabled
  std::int64_t progress_last_wall_ns_ = 0;
  std::uint64_t progress_last_dispatched_ = 0;
  std::vector<const std::uint64_t*> progress_counters_;

  // Whether a callback is running (inside RunUntil), the sequence number of
  // the event it belongs to, and the time through which a drain has fired
  // every event.
  bool dispatching_ = false;
  std::uint64_t dispatch_seq_ = 0;
  Nanos drained_through_ = std::numeric_limits<Nanos>::min();

  std::vector<Nanos> log_holds_;  // start times of open holds
  std::vector<DispatchRecord> dispatch_log_;
  // Catch-up state: the side queue, and the key of the side event being
  // dispatched (or "in body").
  EventQueue side_queue_;
  bool catching_up_ = false;
  bool catch_up_in_body_ = false;
  std::uint64_t catch_up_body_pos_ = 0;
  std::uint64_t catch_up_main_next_ = 0;
  Nanos side_when_ = 0;
  std::uint64_t side_seq_ = 0;
  bool side_pos_valid_ = false;
  std::uint64_t side_pos_ = 0;
  // (side id, main id) of every event the last catch-up spliced.
  std::vector<std::pair<EventQueue::EventId, EventQueue::EventId>> spliced_;
  // Offsets already used in each splice gap (keyed by the gap's upper bound).
  std::unordered_map<std::uint64_t, std::uint64_t> gap_used_;
};

}  // namespace deepplan

#endif  // SRC_SIM_SIMULATOR_H_
