/**
 * @file
 * Awaitable primitives for sim::Task coroutines: time delays, one-shot
 * completion events, and counting semaphores.
 */

#ifndef AGENTSIM_SIM_AWAITABLE_HH
#define AGENTSIM_SIM_AWAITABLE_HH

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace agentsim::sim
{

/**
 * Awaitable that resumes the coroutine after @p delay ticks.
 *
 * Zero-tick delays still round-trip through the event queue, so
 * same-time resumptions preserve FIFO order.
 */
struct Delay
{
    Simulation &sim;
    Tick delay;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        AGENTSIM_ASSERT(delay >= 0, "negative delay");
        sim.scheduleResume(delay, h);
    }

    void await_resume() const noexcept {}
};

/** Convenience: co_await delay(sim, ticks). */
inline Delay
delay(Simulation &sim, Tick ticks)
{
    return Delay{sim, ticks};
}

/** Convenience: co_await delaySec(sim, seconds). */
inline Delay
delaySec(Simulation &sim, double seconds)
{
    return Delay{sim, fromSeconds(seconds)};
}

/**
 * One-shot completion event carrying a value of type T.
 *
 * A producer (e.g. the LLM engine) calls set() exactly once; any number
 * of coroutines may co_await the completion, before or after set(),
 * and each resumes with a const reference to the value. A single
 * consumer may take() the value instead of copying it.
 * Copies share state (shared_ptr), so a Completion can be handed to the
 * producer while the consumer awaits its own copy.
 */
template <typename T>
class Completion
{
  public:
    explicit Completion(Simulation &sim)
        : state_(std::make_shared<State>(State{&sim, {}, {}, false}))
    {
    }

    /** Fulfil the completion; resumes all waiters at the current time. */
    void
    set(T value)
    {
        State &st = *state_;
        AGENTSIM_ASSERT(!st.value.has_value(), "Completion set twice");
        st.value.emplace(std::move(value));
        // Resume via the event queue so producers never re-enter
        // consumers synchronously.
        for (auto h : st.waiters)
            st.sim->scheduleResume(0, h);
        st.waiters.clear();
    }

    /** True once set() has been called. */
    bool ready() const { return state_->value.has_value(); }

    /** Access the value after completion (const reference). */
    const T &
    peek() const
    {
        AGENTSIM_ASSERT(state_->value.has_value(),
                        "Completion::peek before set");
        AGENTSIM_ASSERT(!state_->taken, "Completion::peek after take");
        return *state_->value;
    }

    /**
     * Move the value out after completion. Only for a completion with
     * a single consumer: once taken, the value is gone, so no other
     * waiter may read it (peek() and a later take() panic).
     */
    T
    take()
    {
        AGENTSIM_ASSERT(state_->value.has_value(),
                        "Completion::take before set");
        AGENTSIM_ASSERT(!state_->taken, "Completion taken twice");
        state_->taken = true;
        return std::move(*state_->value);
    }

    auto
    operator co_await() const noexcept
    {
        struct Awaiter
        {
            std::shared_ptr<State> st;

            bool
            await_ready() const noexcept
            {
                return st->value.has_value();
            }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                st->waiters.push_back(h);
            }

            const T &
            await_resume() const
            {
                AGENTSIM_ASSERT(!st->taken, "Completion awaited after take");
                return *st->value;
            }
        };
        return Awaiter{state_};
    }

  private:
    struct State
    {
        Simulation *sim;
        std::optional<T> value;
        std::vector<std::coroutine_handle<>> waiters;
        bool taken = false;
    };

    std::shared_ptr<State> state_;
};

/**
 * Counting semaphore for modelling limited resources (tool concurrency,
 * worker pools). FIFO-fair: waiters acquire in arrival order.
 */
class Semaphore
{
  public:
    /**
     * @param sim owning simulation.
     * @param count initial number of available permits (>= 0).
     */
    Semaphore(Simulation &sim, int count) : sim_(sim), count_(count)
    {
        AGENTSIM_ASSERT(count >= 0, "negative semaphore count");
    }

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    /** Awaitable acquire of one permit. */
    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &sem;

            bool
            await_ready() const noexcept
            {
                if (sem.count_ > 0) {
                    --sem.count_;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push_back(h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Release one permit; hands it to the oldest waiter if any. */
    void
    release()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            // The permit transfers directly to the waiter.
            sim_.scheduleResume(0, h);
        } else {
            ++count_;
        }
    }

    /** Currently available permits. */
    int available() const { return count_; }

    /** Number of coroutines blocked in acquire(). */
    std::size_t waiting() const { return waiters_.size(); }

  private:
    Simulation &sim_;
    int count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * RAII permit holder: co_await ScopedPermit::acquire(sem) and the permit
 * releases when the holder goes out of scope.
 */
class ScopedPermit
{
  public:
    explicit ScopedPermit(Semaphore &sem) : sem_(&sem) {}

    ScopedPermit(ScopedPermit &&other) noexcept
        : sem_(std::exchange(other.sem_, nullptr))
    {
    }

    ScopedPermit(const ScopedPermit &) = delete;
    ScopedPermit &operator=(const ScopedPermit &) = delete;
    ScopedPermit &operator=(ScopedPermit &&) = delete;

    ~ScopedPermit()
    {
        if (sem_)
            sem_->release();
    }

  private:
    Semaphore *sem_;
};

} // namespace agentsim::sim

#endif // AGENTSIM_SIM_AWAITABLE_HH
