#include "tests/reference_event_queue.h"

#include "src/util/logging.h"

namespace deepplan {

ReferenceEventQueue::EventId ReferenceEventQueue::Schedule(Nanos when, Callback cb) {
  const EventId id = next_id_++;
  callbacks_.push_back(std::move(cb));
  live_.push_back(true);
  ++live_count_;
  heap_.push(Entry{when, id});
  return id;
}

bool ReferenceEventQueue::Cancel(EventId id) {
  if (id >= live_.size() || !live_[id]) {
    return false;
  }
  live_[id] = false;
  callbacks_[id] = nullptr;
  --live_count_;
  return true;
}

void ReferenceEventQueue::SkipCancelled() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    if (top.id < live_.size() && live_[top.id]) {
      return;
    }
    heap_.pop();
  }
}

Nanos ReferenceEventQueue::NextTime() const {
  SkipCancelled();
  DP_CHECK(!heap_.empty());
  return heap_.top().when;
}

std::pair<Nanos, ReferenceEventQueue::Callback> ReferenceEventQueue::PopNext() {
  SkipCancelled();
  DP_CHECK(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  Callback cb = std::move(callbacks_[top.id]);
  callbacks_[top.id] = nullptr;
  live_[top.id] = false;
  --live_count_;
  return {top.when, std::move(cb)};
}

}  // namespace deepplan
