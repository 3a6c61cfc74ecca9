#include "src/sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/check/validator.h"
#include "src/obs/selfprof.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// DEEPPLAN_PROGRESS=<seconds between heartbeats> (fractional ok; <= 0 or
// unset disables). Read once per process — tests use the per-sim setter.
Nanos GlobalProgressPeriodNs() {
  static const Nanos period = [] {
    const char* env = std::getenv("DEEPPLAN_PROGRESS");
    if (env == nullptr || *env == '\0') {
      return Nanos{0};
    }
    const double seconds = std::strtod(env, nullptr);
    if (!(seconds > 0.0)) {
      return Nanos{0};
    }
    return Seconds(seconds);
  }();
  return period;
}

}  // namespace

Simulator::Simulator() : progress_period_ns_(GlobalProgressPeriodNs()) {
  // Sized before the run: a first allocation mid-run lands above the run's
  // large, short-lived buffers and keeps the heap from reusing their space
  // (+0.6 MB peak RSS on a warm-only perfbench replay).
  inline_.reserve(16);
}

EventQueue::EventId Simulator::ScheduleAfter(Nanos delay, Callback cb) {
  return ScheduleAt(now_ + delay, std::move(cb));
}

EventQueue::EventId Simulator::ScheduleAt(Nanos when, Callback cb) {
  check::SimValidator::OnSchedule(now_, when);
  DP_CHECK(when >= now_);
  if (catching_up_) {
    return queue_.ScheduleWithSeq(when, SpliceSeq(CatchUpPosition()),
                                  std::move(cb));
  }
  return queue_.Schedule(when, std::move(cb));
}

void Simulator::ScheduleInlineAfter(Nanos delay, InlineEventHandler* handler,
                                    int arg) {
  DP_CHECK(!catching_up_ && "inline events cannot be scheduled in a catch-up");
  const Nanos when = now_ + delay;
  check::SimValidator::OnSchedule(now_, when);
  DP_CHECK(when >= now_);
  inline_.push_back({when, queue_.ReserveSeq(), handler, arg});
  std::push_heap(inline_.begin(), inline_.end(), InlineLater);
}

Nanos Simulator::NextEventTime() const {
  if (inline_.empty()) {
    return queue_.NextTime();
  }
  const Nanos when = inline_.front().when;
  return queue_.empty() ? when : std::min(when, queue_.NextTime());
}

Nanos Simulator::Run() { return RunUntil(std::numeric_limits<Nanos>::max()); }

Nanos Simulator::RunUntil(Nanos deadline) {
  // One scope per drain, not per event: at ~165ns of real work per simulated
  // event, a pair of clock reads per event would dominate the loop. The
  // event counts reach the lane as deltas at each exit path instead.
  DP_SELFPROF_SCOPE(kSimDispatch);
  const std::uint64_t dispatched_at_entry = dispatched_;
  const std::uint64_t inline_at_entry = inline_dispatched_;
  // Every callback runs inside this loop, so "in a dispatch" is "in here".
  dispatching_ = true;
  for (;;) {
    // The next event is the queue head or the inline head, whichever comes
    // first in (time, seq) order; both draw seqs from the queue's counter.
    bool fire_inline = false;
    Nanos next = 0;
    if (inline_.empty()) {
      if (queue_.empty()) {
        break;
      }
      next = queue_.NextTime();
    } else if (queue_.empty()) {
      fire_inline = true;
      next = inline_.front().when;
    } else {
      const auto [when, seq] = queue_.NextKey();
      const InlineEvent& head = inline_.front();
      fire_inline = head.when != when ? head.when < when : head.seq < seq;
      next = fire_inline ? head.when : when;
    }
    if (next > deadline) {
      now_ = deadline;
      break;
    }
    if (fire_inline) {
      std::pop_heap(inline_.begin(), inline_.end(), InlineLater);
      const InlineEvent event = inline_.back();
      inline_.pop_back();
      check::SimValidator::OnEventFire(now_, event.when);
      DP_CHECK(event.when >= now_);
      now_ = event.when;
      dispatch_seq_ = event.seq;
      if (!log_holds_.empty()) {
        dispatch_log_.push_back({event.when, event.seq, queue_.next_seq()});
      }
      event.handler->OnInlineEvent(event.arg);
      ++inline_dispatched_;
      continue;
    }
    auto [when, cb] = queue_.PopNext();
    check::SimValidator::OnEventFire(now_, when);
    DP_CHECK(when >= now_);
    now_ = when;
    dispatch_seq_ = queue_.last_popped_seq();
    if (!log_holds_.empty()) {
      dispatch_log_.push_back({when, dispatch_seq_, queue_.next_seq()});
    }
    cb();
    ++dispatched_;
    if (progress_period_ns_ != 0 && (dispatched_ & 1023u) == 0) {
      MaybeEmitProgress();
    }
  }
  selfprof::AddCount(selfprof::Counter::kEventsDispatched,
                     dispatched_ - dispatched_at_entry);
  selfprof::AddCount(selfprof::Counter::kInlineEventsDispatched,
                     inline_dispatched_ - inline_at_entry);
  drained_through_ = now_;
  dispatching_ = false;
  return now_;
}

void Simulator::HoldDispatchLog(Nanos start) { log_holds_.push_back(start); }

void Simulator::ReleaseDispatchLog(Nanos start) {
  const auto it = std::find(log_holds_.begin(), log_holds_.end(), start);
  DP_CHECK(it != log_holds_.end());
  log_holds_.erase(it);
  if (log_holds_.empty()) {
    dispatch_log_.clear();
    // Later catch-ups start at or after the current position, so gaps below
    // it can never be filled again.
    const std::uint64_t floor = queue_.next_seq();
    for (auto it2 = gap_used_.begin(); it2 != gap_used_.end();) {
      it2 = it2->first < floor ? gap_used_.erase(it2) : std::next(it2);
    }
    return;
  }
  // A catch-up only looks up dispatches after its own start; drop the prefix
  // no open hold can reach, in batches.
  if (dispatch_log_.size() >= 4096) {
    const Nanos oldest = *std::min_element(log_holds_.begin(), log_holds_.end());
    const auto keep = std::find_if(
        dispatch_log_.begin(), dispatch_log_.end(),
        [oldest](const DispatchRecord& r) { return r.when >= oldest; });
    dispatch_log_.erase(dispatch_log_.begin(), keep);
  }
}

std::uint64_t Simulator::CatchUpPosition() {
  if (catch_up_in_body_) {
    return catch_up_body_pos_;
  }
  if (!side_pos_valid_) {
    // The first main dispatch that follows the side dispatch in (time, seq)
    // order: everything it and later dispatches scheduled comes after.
    const auto it = std::upper_bound(
        dispatch_log_.begin(), dispatch_log_.end(),
        std::make_pair(side_when_, side_seq_),
        [](const std::pair<Nanos, std::uint64_t>& key, const DispatchRecord& r) {
          return key.first != r.when ? key.first < r.when : key.second < r.seq;
        });
    side_pos_ = it != dispatch_log_.end() ? it->next_seq : catch_up_main_next_;
    side_pos_valid_ = true;
  }
  return side_pos_;
}

std::uint64_t Simulator::SpliceSeq(std::uint64_t pos) {
  const std::uint64_t used = ++gap_used_[pos];
  DP_CHECK(used < EventQueue::kSeqStride);
  return pos - EventQueue::kSeqStride + used;
}

void Simulator::CatchUp(Nanos start, std::uint64_t start_seq, CatchUpUntil until,
                        const std::function<void()>& body,
                        const std::function<void()>& before_splice) {
  DP_CHECK(!catching_up_);
  DP_CHECK(start <= now_);
  const Nanos now = now_;
  // Events at now() fire when they precede the event being dispatched or,
  // outside a dispatch, when a drain has already fired everything at now().
  const bool fire_at_now =
      until == CatchUpUntil::kCurrentDispatch &&
      (dispatching_ || drained_through_ >= now);
  const std::uint64_t boundary_seq = dispatching_
                                         ? dispatch_seq_
                                         : std::numeric_limits<std::uint64_t>::max();
  catch_up_main_next_ = queue_.next_seq();
  std::swap(queue_, side_queue_);
  queue_.ResetPopHorizon();
  catching_up_ = true;
  catch_up_in_body_ = true;
  catch_up_body_pos_ = start_seq;
  now_ = start;
  body();
  catch_up_in_body_ = false;

  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    const Nanos next = queue_.NextTime();
    if (next > now ||
        (next == now && (!fire_at_now || queue_.NextSeq() > boundary_seq))) {
      break;
    }
    auto [when, cb] = queue_.PopNext();
    check::SimValidator::OnEventFire(now_, when);
    now_ = when;
    side_when_ = when;
    side_seq_ = queue_.last_popped_seq();
    side_pos_valid_ = false;
    cb();
    ++fired;
  }
  now_ = now;
  before_splice();

  struct Pending {
    Nanos when;
    std::uint64_t seq;
    EventQueue::EventId id;
    Callback cb;
  };
  std::vector<Pending> rest;
  rest.reserve(queue_.size());
  while (!queue_.empty()) {
    auto [when, cb] = queue_.PopNext();
    rest.push_back(
        {when, queue_.last_popped_seq(), queue_.last_popped_id(), std::move(cb)});
  }
  std::swap(queue_, side_queue_);
  catching_up_ = false;
  spliced_.clear();
  for (Pending& p : rest) {
    spliced_.emplace_back(p.id,
                          queue_.ScheduleWithSeq(p.when, p.seq, std::move(p.cb)));
  }
  queue_.AddScheduled(fired);
  dispatched_ += fired;
  selfprof::AddCount(selfprof::Counter::kEventsDispatched, fired);
}

EventQueue::EventId Simulator::SplicedEventId(EventQueue::EventId side_id) const {
  for (const auto& [side, main] : spliced_) {
    if (side == side_id) {
      return main;
    }
  }
  DP_CHECK(false && "event was not spliced by the last catch-up");
  return 0;
}

void Simulator::AddProgressCounter(const std::uint64_t* counter) {
  progress_counters_.push_back(counter);
}

void Simulator::RemoveProgressCounter(const std::uint64_t* counter) {
  progress_counters_.erase(
      std::remove(progress_counters_.begin(), progress_counters_.end(), counter),
      progress_counters_.end());
}

void Simulator::MaybeEmitProgress() {
  const std::int64_t wall = selfprof::MonotonicNowNs();
  if (progress_last_wall_ns_ == 0) {
    // First check establishes the baseline; the first line lands one period
    // into the run, so short runs stay silent.
    progress_last_wall_ns_ = wall;
    progress_last_dispatched_ = dispatched_;
    return;
  }
  const std::int64_t elapsed = wall - progress_last_wall_ns_;
  if (elapsed < progress_period_ns_) {
    return;
  }
  std::uint64_t retired = 0;
  for (const std::uint64_t* counter : progress_counters_) {
    retired += *counter;
  }
  const double events_per_sec =
      static_cast<double>(dispatched_ - progress_last_dispatched_) /
      (static_cast<double>(elapsed) / 1e9);
  char line[192];
  std::snprintf(line, sizeof(line),
                "deepplan-progress: sim=%.3fs events=%llu ev/s=%.3gM "
                "retired=%llu rss=%lldMB\n",
                ToSeconds(now_),
                static_cast<unsigned long long>(dispatched_),
                events_per_sec / 1e6,
                static_cast<unsigned long long>(retired),
                static_cast<long long>(selfprof::CurrentRssKb() / 1024));
  std::fputs(line, stderr);
  selfprof::AddCount(selfprof::Counter::kHeartbeats, 1);
  progress_last_wall_ns_ = wall;
  progress_last_dispatched_ = dispatched_;
}

}  // namespace deepplan
