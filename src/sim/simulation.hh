/**
 * @file
 * The simulation executive: a virtual clock draining an event queue.
 *
 * Coroutine processes (sim::Task) interact with the clock through the
 * awaitables in awaitable.hh; plain callbacks can be scheduled directly.
 */

#ifndef AGENTSIM_SIM_SIMULATION_HH
#define AGENTSIM_SIM_SIMULATION_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace agentsim::sim
{

/**
 * Single-threaded discrete-event simulation executive.
 *
 * Time only advances inside run()/runUntil()/step(); callbacks must not
 * block. Events scheduled in the past are a simulator bug (panic).
 */
class Simulation
{
  public:
    Simulation() = default;
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current virtual time. */
    Tick now() const { return now_; }

    /** Current virtual time in seconds. */
    double nowSec() const { return toSeconds(now_); }

    /** Schedule @p action to run @p delay ticks from now (>= 0). */
    void schedule(Tick delay, std::function<void()> action);

    /** Schedule @p action at absolute tick @p when (>= now). */
    void scheduleAt(Tick when, std::function<void()> action);

    /** Schedule resumption of a coroutine @p delay ticks from now. */
    void scheduleResume(Tick delay, std::coroutine_handle<> handle);

    /**
     * Run until the event queue is empty.
     * @return the final simulation time.
     */
    Tick run();

    /**
     * Run all events with time <= @p until; the clock is then advanced
     * to exactly @p until even if no event lands there.
     * @return the final simulation time (== until).
     */
    Tick runUntil(Tick until);

    /** Process a single event. @return false if the queue was empty. */
    bool step();

    /** Event-queue pooling counters (sim_metrics export). */
    std::uint64_t
    queueBucketsAllocated() const
    {
        return events_.bucketsAllocated();
    }

    std::uint64_t
    queueBucketsRecycled() const
    {
        return events_.bucketsRecycled();
    }

    /** Total events ever processed. */
    std::uint64_t processedEvents() const { return processed_; }

    /**
     * Host wall-clock seconds spent inside run()/runUntil() loops —
     * simulator self-timing, so perf reports can cite events/sec
     * without external timer plumbing. step() called directly is not
     * timed (per-event timer reads would dominate it).
     */
    double wallSeconds() const { return wallSeconds_; }

    /** Events processed per host wall-clock second (0 if untimed). */
    double eventsPerSecond() const
    {
        return wallSeconds_ > 0.0
                   ? static_cast<double>(processed_) / wallSeconds_
                   : 0.0;
    }

  private:
    EventQueue events_;
    Tick now_ = 0;
    std::uint64_t processed_ = 0;
    double wallSeconds_ = 0.0;
};

} // namespace agentsim::sim

#endif // AGENTSIM_SIM_SIMULATION_HH
