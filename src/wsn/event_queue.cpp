#include "wsn/event_queue.h"

#include "obs/profile.h"
#include "util/error.h"

namespace sid::wsn {

void EventQueue::schedule_at(double t, Callback cb) {
  util::require(t >= now_, "EventQueue::schedule_at: time in the past");
  util::require(static_cast<bool>(cb), "EventQueue::schedule_at: empty cb");
  heap_.push(Event{t, next_seq_++, std::move(cb)});
}

void EventQueue::schedule_after(double delay, Callback cb) {
  util::require(delay >= 0.0, "EventQueue::schedule_after: negative delay");
  schedule_at(now_ + delay, std::move(cb));
}

void EventQueue::dispatch_top() {
  // Copy out before pop so the callback may schedule new events.
  Event ev = heap_.top();
  heap_.pop();
  now_ = ev.time;
  SID_PROFILE_STAGE(obs::Stage::kEventDispatch);
  ev.cb();
  ++executed_total_;
}

std::size_t EventQueue::run_until(double t_end) {
  util::require(t_end >= now_, "EventQueue::run_until: t_end in the past");
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.top().time <= t_end) {
    dispatch_top();
    ++executed;
  }
  now_ = t_end;
  return executed;
}

std::size_t EventQueue::run_all() {
  std::size_t executed = 0;
  while (!heap_.empty()) {
    dispatch_top();
    ++executed;
  }
  return executed;
}

}  // namespace sid::wsn
