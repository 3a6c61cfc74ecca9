// CUDA-stream-like in-order work queues plus cross-stream synchronization
// events, mirroring the execution-coordination layer of Section 4.3.4: the
// load stream records a SyncEvent after each layer transfer
// (cudaEventRecord), the execute stream waits on it (cudaStreamWaitEvent).
#ifndef SRC_SIM_STREAM_H_
#define SRC_SIM_STREAM_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace deepplan {

// One-shot synchronization point. Fires once; waiters registered before the
// fire run at fire time, waiters registered after run immediately. A
// default-constructed event is inert until Reset attaches a simulator;
// Reset also rearms a fired event for reuse (pooled cold-run bookkeeping
// retains the waiter vector's capacity across runs).
class SyncEvent {
 public:
  SyncEvent() = default;
  explicit SyncEvent(Simulator* sim) : sim_(sim) {}

  void Reset(Simulator* sim) {
    sim_ = sim;
    fired_ = false;
    fire_time_ = -1;
    waiters_.clear();
  }

  bool fired() const { return fired_; }
  Nanos fire_time() const { return fire_time_; }
  std::size_t waiter_capacity() const { return waiters_.capacity(); }

  // Marks the event fired at the current simulated time and releases waiters.
  void Fire();

  // Invokes `cb` once the event has fired (immediately if already fired).
  void OnFire(std::function<void()> cb);

 private:
  Simulator* sim_ = nullptr;
  bool fired_ = false;
  Nanos fire_time_ = -1;
  std::vector<std::function<void()>> waiters_;
};

// In-order asynchronous work queue. Each op receives a `done` callback it must
// invoke exactly once (possibly at a later simulated time); the next op starts
// only after the previous one finished.
class Stream {
 public:
  // An op begins when the stream reaches it and calls `done` when finished.
  using Op = std::function<void(std::function<void()> done)>;

  // A default-constructed stream is inert until Reset attaches a simulator.
  Stream() = default;
  Stream(Simulator* sim, std::string name);

  // Rearms a drained stream for reuse (pooled cold-run bookkeeping). The
  // stream must be idle: no queued ops, no op in flight.
  void Reset(Simulator* sim, std::string name);

  const std::string& name() const { return name_; }
  bool idle() const { return !running_ && queue_.empty(); }

  // Appends an op.
  void Enqueue(Op op);

  // Convenience: an op that just occupies the stream for `duration`.
  void EnqueueDelay(Nanos duration);

  // Convenience: fire `event` when the stream reaches this point.
  void EnqueueRecord(SyncEvent* event);

  // Convenience: block the stream until `event` fires.
  void EnqueueWait(SyncEvent* event);

  // Convenience: run `fn` inline (zero duration) when the stream reaches it.
  void EnqueueMarker(std::function<void()> fn);

  // Total time this stream spent with work enqueued but blocked on a wait op
  // (approximate pipeline-stall accounting for diagnostics).
  Nanos wait_time() const { return wait_time_; }

 private:
  void MaybeStartNext();

  Simulator* sim_ = nullptr;
  std::string name_;
  std::deque<Op> queue_;
  bool running_ = false;
  Nanos wait_time_ = 0;
  // When the most recent op started; the validator asserts in-order starts.
  Nanos last_start_ = -1;
};

}  // namespace deepplan

#endif  // SRC_SIM_STREAM_H_
