// ActorLane: a simulated thread.
//
// The paper's engine is built from a handful of threads (TunReader, TunWriter,
// MainWorker, and short-lived socket-connect threads, Fig. 4). In the virtual-
// time reproduction each becomes an ActorLane: tasks submitted to a lane run
// serially, each occupying the lane for a sampled service duration, and a
// task that arrives while the lane is busy queues behind it. This is what
// makes "the selector event was delayed several ms because MainWorker was
// busy" (challenge C2, §2.4) an emergent property rather than a constant.
//
// A lane's tasks form one EventStream: each task ends at
// max(now + wake, free_at) + service, and free_at is the previous task's end,
// so end times never fall and the stream invariant holds by construction.
// Tasks therefore run at the same instants and in the same order as if each
// were scheduled on its own, with one heap entry per busy lane. A task still
// runs if its lane is destroyed first (connect and DNS lanes retire while
// their last tasks are queued).
#ifndef MOPEYE_SIM_ACTOR_H_
#define MOPEYE_SIM_ACTOR_H_

#include <functional>
#include <string>

#include "sim/event_loop.h"
#include "util/time.h"

namespace mopsim {

class ActorLane {
 public:
  // `name` is for diagnostics only.
  ActorLane(EventLoop* loop, std::string name);

  // Submits a task:
  //   start = max(now + wake_latency, lane free time)
  //   end   = start + service
  // `fn(start, end)` runs at `end` (its externally visible effects happen when
  // the simulated thread finishes the work).
  void Submit(SimDuration wake_latency, SimDuration service,
              std::function<void(SimTime start, SimTime end)> fn);

  // Convenience for effect-only tasks.
  void Submit(SimDuration wake_latency, SimDuration service, std::function<void()> fn);

  // Total time this lane spent executing tasks (for the CPU model, Table 4).
  SimDuration busy_time() const { return busy_time_; }
  SimTime free_at() const { return free_at_; }
  bool IsBusyAt(SimTime t) const { return t < free_at_; }
  const std::string& name() const { return tasks_.sink().name; }
  size_t tasks_run() const { return tasks_run_; }

 private:
  // Runs each task under the lane's name as the log-prefix lane token. The
  // name lives in the stream, so it outlives a retired lane's queued tasks.
  struct RunTask {
    using Item = std::function<void()>;
    std::string name;
    void operator()(Item& task) const;
  };

  // Books the lane for one task; returns its end time.
  SimTime Book(SimDuration wake_latency, SimDuration service);

  EventLoop* loop_;
  EventStream<RunTask> tasks_;
  SimTime free_at_ = 0;
  SimDuration busy_time_ = 0;
  size_t tasks_run_ = 0;
};

}  // namespace mopsim

#endif  // MOPEYE_SIM_ACTOR_H_
