#include "src/sim/stream.h"

#include "src/check/validator.h"
#include "src/obs/selfprof.h"
#include "src/util/logging.h"

namespace deepplan {

void SyncEvent::Fire() {
  check::SimValidator::OnSyncEventFire("SyncEvent::Fire", fired_, sim_->now());
  DP_CHECK(!fired_);
  fired_ = true;
  fire_time_ = sim_->now();
  // Called in place, then cleared, so the vector keeps its capacity for the
  // next Reset. A waiter that registers on this event now runs immediately
  // (fired_ is set), so the vector does not grow while it is walked.
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    waiters_[i]();
  }
  waiters_.clear();
}

void SyncEvent::OnFire(std::function<void()> cb) {
  if (fired_) {
    cb();
  } else {
    waiters_.push_back(std::move(cb));
  }
}

Stream::Stream(Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {
  DP_CHECK(sim != nullptr);
}

void Stream::Reset(Simulator* sim, std::string name) {
  DP_CHECK(sim != nullptr);
  DP_CHECK(!running_ && queue_.empty());
  sim_ = sim;
  name_ = std::move(name);
  wait_time_ = 0;
  last_start_ = -1;
}

void Stream::Enqueue(Op op) {
  queue_.push_back(std::move(op));
  MaybeStartNext();
}

void Stream::EnqueueDelay(Nanos duration) {
  DP_CHECK(duration >= 0);
  Enqueue([this, duration](std::function<void()> done) {
    sim_->ScheduleAfter(duration, std::move(done));
  });
}

void Stream::EnqueueRecord(SyncEvent* event) {
  Enqueue([event](std::function<void()> done) {
    event->Fire();
    done();
  });
}

void Stream::EnqueueWait(SyncEvent* event) {
  Enqueue([this, event](std::function<void()> done) {
    const Nanos wait_start = sim_->now();
    event->OnFire([this, wait_start, done = std::move(done)]() {
      wait_time_ += sim_->now() - wait_start;
      done();
    });
  });
}

void Stream::EnqueueMarker(std::function<void()> fn) {
  Enqueue([fn = std::move(fn)](std::function<void()> done) {
    fn();
    done();
  });
}

void Stream::MaybeStartNext() {
  if (running_ || queue_.empty()) {
    return;
  }
  // After the early-outs so only real op starts are attributed; ops whose
  // done callback fires synchronously re-enter this function and collapse
  // into the already-open scope (count bump, no nested timing).
  DP_SELFPROF_SCOPE(kExecStream);
  running_ = true;
  check::SimValidator::OnStreamOpStart(name_, last_start_, sim_->now());
  last_start_ = sim_->now();
  Op op = std::move(queue_.front());
  queue_.pop_front();
  // The done callback may fire synchronously (marker/record ops); guard
  // against recursion by deferring continuation through the event queue only
  // when needed — here we simply re-enter MaybeStartNext after clearing
  // running_, which is safe because Enqueue during an op lands behind us.
  op([this]() {
    running_ = false;
    MaybeStartNext();
  });
}

}  // namespace deepplan
