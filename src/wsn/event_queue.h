// Discrete-event simulation engine.
//
// A single-threaded event queue drives the WSN: message deliveries, timer
// expirations (the temporary-cluster collection window), and periodic
// duties are all events. Determinism: ties on time are broken by
// insertion order, so a run is exactly reproducible for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace sid::wsn {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulation time (seconds). Starts at 0.
  double now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now).
  void schedule_at(double t, Callback cb);

  /// Schedules `cb` after `delay` seconds (>= 0).
  void schedule_after(double delay, Callback cb);

  /// Runs events until the queue is empty or the next event is past
  /// `t_end`; advances now() to min(t_end, last event time). Returns the
  /// number of events executed.
  std::size_t run_until(double t_end);

  /// Runs everything. Returns the number of events executed.
  std::size_t run_all();

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Total events executed over this queue's lifetime (observability:
  /// mirrored into the metrics registry as "sim.events_executed").
  std::uint64_t executed_total() const { return executed_total_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops the top event, advances now, dispatches the callback under the
  /// kEventDispatch profiling stage.
  void dispatch_top();

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_total_ = 0;
};

}  // namespace sid::wsn
