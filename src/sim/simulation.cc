#include "sim/simulation.hh"

#include <chrono>
#include <utility>

#include "sim/logging.hh"

namespace agentsim::sim
{

void
Simulation::schedule(Tick delay, std::function<void()> action)
{
    AGENTSIM_ASSERT(delay >= 0, "scheduling event %lld ticks in the past",
                    static_cast<long long>(-delay));
    events_.push(now_ + delay, std::move(action));
}

void
Simulation::scheduleAt(Tick when, std::function<void()> action)
{
    AGENTSIM_ASSERT(when >= now_, "scheduleAt(%lld) before now (%lld)",
                    static_cast<long long>(when),
                    static_cast<long long>(now_));
    events_.push(when, std::move(action));
}

void
Simulation::scheduleResume(Tick delay, std::coroutine_handle<> handle)
{
    schedule(delay, [handle] { handle.resume(); });
}

Tick
Simulation::run()
{
    const auto start = std::chrono::steady_clock::now();
    while (step()) {
    }
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return now_;
}

Tick
Simulation::runUntil(Tick until)
{
    AGENTSIM_ASSERT(until >= now_, "runUntil into the past");
    const auto start = std::chrono::steady_clock::now();
    while (!events_.empty() && events_.nextTime() <= until)
        step();
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    now_ = until;
    return now_;
}

bool
Simulation::step()
{
    if (events_.empty())
        return false;
    Event ev = events_.pop();
    AGENTSIM_ASSERT(ev.when >= now_, "event time went backwards");
    now_ = ev.when;
    ++processed_;
    ev.action();
    return true;
}

} // namespace agentsim::sim
