// The original binary-heap EventQueue, kept as the differential oracle for
// the calendar-queue backend (tests/eventqueue_diff_test.cc, its only user).
// Pops are ordered by (when, insertion sequence): equal-time events fire in
// schedule order. Any randomized schedule must produce bit-identical pop
// sequences on both backends; this class defines "correct".
#ifndef TESTS_REFERENCE_EVENT_QUEUE_H_
#define TESTS_REFERENCE_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "src/util/time.h"

namespace deepplan {

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  // Schedules `cb` at absolute time `when`. Returns an id usable with Cancel.
  EventId Schedule(Nanos when, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op and returns false.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Earliest pending event time; must not be called when empty.
  Nanos NextTime() const;

  // Pops and returns the earliest event (time + callback). Must not be empty.
  std::pair<Nanos, Callback> PopNext();

 private:
  struct Entry {
    Nanos when;
    EventId id;
    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : id > o.id;
    }
  };

  void SkipCancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  // id -> callback; erased on cancel/fire. Keeps heap entries lightweight.
  std::vector<Callback> callbacks_;
  std::vector<bool> live_;
  EventId next_id_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace deepplan

#endif  // TESTS_REFERENCE_EVENT_QUEUE_H_
