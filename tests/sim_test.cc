/**
 * @file
 * Unit tests for the discrete-event kernel: event queue ordering (and
 * the bucketed queue against a reference model), the clock, coroutine
 * tasks, the coroutine frame pool, and awaitable primitives.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/awaitable.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace
{

using namespace agentsim;
using sim::Simulation;
using sim::Task;
using sim::Tick;

TEST(Types, SecondConversionsRoundTrip)
{
    EXPECT_EQ(sim::fromSeconds(1.0), sim::tickSec);
    EXPECT_EQ(sim::fromMillis(1.0), sim::tickMs);
    EXPECT_DOUBLE_EQ(sim::toSeconds(sim::fromSeconds(3.25)), 3.25);
    EXPECT_DOUBLE_EQ(sim::toMillis(sim::fromMillis(17.5)), 17.5);
}

TEST(EventQueue, OrdersByTime)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.push(30, [&] { order.push_back(3); });
    q.push(10, [&] { order.push_back(1); });
    q.push(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop().action();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo)
{
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.push(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().action();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTimes)
{
    Simulation s;
    std::vector<Tick> seen;
    s.schedule(100, [&] { seen.push_back(s.now()); });
    s.schedule(50, [&] { seen.push_back(s.now()); });
    const Tick end = s.run();
    EXPECT_EQ(end, 100);
    EXPECT_EQ(seen, (std::vector<Tick>{50, 100}));
}

TEST(Simulation, NestedScheduling)
{
    Simulation s;
    int fired = 0;
    s.schedule(10, [&] {
        s.schedule(5, [&] { fired = static_cast<int>(s.now()); });
    });
    s.run();
    EXPECT_EQ(fired, 15);
}

TEST(Simulation, RunUntilStopsAndSetsClock)
{
    Simulation s;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        s.schedule(t, [&] { ++count; });
    s.runUntil(45);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(s.now(), 45);
    s.run();
    EXPECT_EQ(count, 10);
}

TEST(Simulation, ProcessedEventCount)
{
    Simulation s;
    for (int i = 0; i < 7; ++i)
        s.schedule(i, [] {});
    s.run();
    EXPECT_EQ(s.processedEvents(), 7u);
}

TEST(Simulation, ZeroDelayRunsAfterQueuedSameTickEvents)
{
    // schedule(0, ...) from inside an event lands at the current tick,
    // behind everything already queued there, and does not move the
    // clock.
    Simulation s;
    std::vector<std::string> order;
    std::vector<Tick> at;
    s.schedule(10, [&] {
        order.push_back("a");
        s.schedule(0, [&] {
            order.push_back("a0");
            at.push_back(s.now());
        });
    });
    s.schedule(10, [&] { order.push_back("b"); });
    s.schedule(11, [&] { order.push_back("c"); });
    s.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"a", "b", "a0", "c"}));
    EXPECT_EQ(at, (std::vector<Tick>{10}));
    EXPECT_EQ(s.processedEvents(), 4u);
}

/** Ring of @p nodes passing messages with per-hop latencies; returns
 *  each node's receive log as (tick, sender) pairs. */
std::vector<std::vector<std::pair<Tick, int>>>
runRing(int nodes)
{
    Simulation s;
    std::vector<std::vector<std::pair<Tick, int>>> log(
        static_cast<std::size_t>(nodes));
    std::function<void(int, int, int)> send =
        [&](int from, int to, int ttl) {
            s.schedule(10 * (1 + (from + to) % 3), [&, from, to, ttl] {
                log[static_cast<std::size_t>(to)].emplace_back(s.now(),
                                                               from);
                if (ttl > 0) {
                    send(to, (to + 1) % nodes, ttl - 1);
                    send(to, (to + 2) % nodes, ttl - 1);
                }
            });
        };
    for (int n = 0; n < nodes; ++n)
        send(n, (n + 1) % nodes, 4);
    s.run();
    return log;
}

TEST(Simulation, RingIsRunToRunDeterministic)
{
    // Heavy same-tick traffic across many senders: two fresh runs
    // must deliver every message at the same tick and in the same
    // per-node order.
    const auto a = runRing(5);
    const auto b = runRing(5);
    EXPECT_EQ(a, b);
    std::size_t delivered = 0;
    for (const auto &node : a)
        delivered += node.size();
    // 5 roots, each fanning out 2-way for 4 more levels: 5 * 31.
    EXPECT_EQ(delivered, 155u);
}

TEST(Simulation, SelfReschedulingChainRecyclesOneBucket)
{
    // The bucket is retired before the action runs, so a chain that
    // reschedules itself from each event reuses that one bucket.
    Simulation s;
    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 100)
            s.schedule(7, hop);
    };
    s.schedule(0, hop);
    s.run();
    EXPECT_EQ(hops, 100);
    EXPECT_EQ(s.now(), 99 * 7);
    EXPECT_EQ(s.queueBucketsAllocated(), 1u);
    EXPECT_EQ(s.queueBucketsRecycled(), 99u);
}

TEST(Simulation, StepIsNotWallTimed)
{
    // Only run()/runUntil() read the host clock; a step()-driven loop
    // reports no wall time and so no events/s.
    Simulation s;
    for (int i = 0; i < 5; ++i)
        s.schedule(i, [] {});
    while (s.step()) {
    }
    EXPECT_EQ(s.processedEvents(), 5u);
    EXPECT_EQ(s.wallSeconds(), 0.0);
    EXPECT_EQ(s.eventsPerSecond(), 0.0);
    EXPECT_FALSE(s.step());
}

TEST(SimulationDeathTest, SchedulingInThePastPanics)
{
    EXPECT_DEATH(
        {
            Simulation s;
            s.schedule(-1, [] {});
        },
        "in the past");
    EXPECT_DEATH(
        {
            Simulation s;
            s.schedule(20, [&s] { s.scheduleAt(10, [] {}); });
            s.run();
        },
        "before now");
}

TEST(SimulationDeathTest, RunUntilIntoThePastPanics)
{
    EXPECT_DEATH(
        {
            Simulation s;
            s.runUntil(50);
            s.runUntil(40);
        },
        "runUntil into the past");
}

Task<void>
sleeper(Simulation &s, Tick d, Tick *woke)
{
    co_await sim::delay(s, d);
    *woke = s.now();
}

TEST(TaskCoroutine, DelayResumesAtRightTime)
{
    Simulation s;
    Tick woke = -1;
    auto t = sleeper(s, 250, &woke);
    EXPECT_FALSE(t.done());
    s.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(woke, 250);
}

Task<int>
answer(Simulation &s)
{
    co_await sim::delay(s, 10);
    co_return 42;
}

TEST(TaskCoroutine, ResultAfterRun)
{
    Simulation s;
    auto t = answer(s);
    s.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 42);
}

Task<int>
chained(Simulation &s)
{
    const int a = co_await answer(s);
    const int b = co_await answer(s);
    co_return a + b;
}

TEST(TaskCoroutine, AwaitingChildTasks)
{
    Simulation s;
    auto t = chained(s);
    s.run();
    EXPECT_EQ(t.result(), 84);
    EXPECT_EQ(s.now(), 20);
}

Task<int>
thrower(Simulation &s)
{
    co_await sim::delay(s, 1);
    throw std::runtime_error("boom");
}

Task<int>
catcher(Simulation &s, bool *caught)
{
    try {
        co_await thrower(s);
    } catch (const std::runtime_error &) {
        *caught = true;
    }
    co_return 7;
}

TEST(TaskCoroutine, ExceptionsPropagateToAwaiter)
{
    Simulation s;
    bool caught = false;
    auto t = catcher(s, &caught);
    s.run();
    EXPECT_TRUE(caught);
    EXPECT_EQ(t.result(), 7);
}

TEST(TaskCoroutine, ExceptionRethrownFromResult)
{
    Simulation s;
    auto t = thrower(s);
    s.run();
    EXPECT_THROW(t.result(), std::runtime_error);
}

Task<void>
detachee(Simulation &s, int *done)
{
    co_await sim::delay(s, 100);
    *done = 1;
}

TEST(TaskCoroutine, DetachedTaskKeepsRunning)
{
    Simulation s;
    int done = 0;
    {
        auto t = detachee(s, &done);
        // Task handle dropped here while the coroutine is suspended.
    }
    s.run();
    EXPECT_EQ(done, 1);
}

Task<std::vector<int>>
fanOut(Simulation &s)
{
    std::vector<Task<int>> children;
    for (int i = 0; i < 5; ++i)
        children.push_back(answer(s));
    co_return co_await sim::allOf(std::move(children));
}

TEST(TaskCoroutine, AllOfRunsChildrenConcurrently)
{
    Simulation s;
    auto t = fanOut(s);
    s.run();
    // All five children overlap: total virtual time is one delay.
    EXPECT_EQ(s.now(), 10);
    const auto results = t.result();
    ASSERT_EQ(results.size(), 5u);
    for (int v : results)
        EXPECT_EQ(v, 42);
}

Task<void>
completer(Simulation &s, sim::Completion<int> c)
{
    co_await sim::delay(s, 30);
    c.set(99);
}

Task<int>
waiter(sim::Completion<int> c)
{
    co_return co_await c;
}

TEST(Completion, WakesWaiters)
{
    Simulation s;
    sim::Completion<int> c(s);
    auto w1 = waiter(c);
    auto w2 = waiter(c);
    auto p = completer(s, c);
    s.run();
    EXPECT_EQ(w1.result(), 99);
    EXPECT_EQ(w2.result(), 99);
    EXPECT_EQ(s.now(), 30);
    EXPECT_TRUE(c.ready());
    EXPECT_EQ(c.peek(), 99);
}

TEST(Completion, AwaitAfterSetIsImmediate)
{
    Simulation s;
    sim::Completion<int> c(s);
    c.set(5);
    auto w = waiter(c);
    EXPECT_TRUE(w.done());
    EXPECT_EQ(w.result(), 5);
}

Task<void>
semUser(Simulation &s, sim::Semaphore &sem, Tick hold,
        std::vector<Tick> *entries)
{
    co_await sem.acquire();
    entries->push_back(s.now());
    co_await sim::delay(s, hold);
    sem.release();
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation s;
    sim::Semaphore sem(s, 2);
    std::vector<Tick> entries;
    std::vector<Task<void>> users;
    for (int i = 0; i < 4; ++i)
        users.push_back(semUser(s, sem, 10, &entries));
    s.run();
    ASSERT_EQ(entries.size(), 4u);
    // Two run immediately, two wait for the first releases.
    EXPECT_EQ(entries[0], 0);
    EXPECT_EQ(entries[1], 0);
    EXPECT_EQ(entries[2], 10);
    EXPECT_EQ(entries[3], 10);
    EXPECT_EQ(sem.available(), 2);
    EXPECT_EQ(sem.waiting(), 0u);
}

TEST(Rng, DeterministicStreams)
{
    sim::Rng a(1234, "test", 0);
    sim::Rng b(1234, "test", 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DistinctStreamsDiffer)
{
    sim::Rng a(1234, "alpha", 0);
    sim::Rng b(1234, "beta", 0);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LE(same, 1);
}

TEST(Rng, UniformRange)
{
    sim::Rng r(7, "uniform", 0);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    sim::Rng r(7, "uniformInt", 0);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniformInt(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanApprox)
{
    sim::Rng r(7, "exp", 0);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += r.exponential(2.5);
    EXPECT_NEAR(total / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments)
{
    sim::Rng r(7, "normal", 0);
    double total = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal(10.0, 3.0);
        total += x;
        sq += x * x;
    }
    const double mean = total / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, LognormalMeanMatchesRequestedMean)
{
    sim::Rng r(7, "lognormal", 0);
    double total = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        total += r.lognormalMean(1.2, 0.6);
    EXPECT_NEAR(total / n, 1.2, 0.03);
}

TEST(Rng, BernoulliFrequency)
{
    sim::Rng r(7, "bern", 0);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights)
{
    sim::Rng r(7, "cat", 0);
    std::vector<double> w{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[r.categorical(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    sim::Rng r(7, "poisson", 0);
    double total_small = 0.0;
    double total_large = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        total_small += static_cast<double>(r.poisson(3.0));
        total_large += static_cast<double>(r.poisson(80.0));
    }
    EXPECT_NEAR(total_small / n, 3.0, 0.1);
    EXPECT_NEAR(total_large / n, 80.0, 0.5);
}

TEST(Hashing, Fnv1aStable)
{
    // Known stable values keep RNG streams reproducible across builds.
    EXPECT_EQ(sim::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_NE(sim::fnv1a("a"), sim::fnv1a("b"));
    EXPECT_EQ(sim::fnv1a("agent"), sim::fnv1a("agent"));
}

// ---------------------------------------------------------------------
// Bucketed event queue.

TEST(BucketQueue, MatchesReferenceModelUnderRandomLoad)
{
    // The bucket queue must pop in exactly (when, push order) — the
    // same order a stable multimap over insertion sequence produces.
    sim::EventQueue q;
    std::multimap<Tick, int> model;
    std::vector<int> popped;
    sim::Rng rng(7, "test.queue", 0);
    int next_id = 0;
    for (int round = 0; round < 2000; ++round) {
        const bool push = model.empty() || rng.uniform() < 0.6;
        if (push) {
            // Small tick range forces heavy same-tick bucketing.
            const Tick when =
                static_cast<Tick>(rng.uniform(0.0, 50.0));
            const int id = next_id++;
            model.emplace(when, id);
            q.push(when, [&popped, id] { popped.push_back(id); });
        } else {
            ASSERT_FALSE(q.empty());
            ASSERT_EQ(q.nextTime(), model.begin()->first);
            const int expect = model.begin()->second;
            model.erase(model.begin());
            auto ev = q.pop();
            ev.action();
            ASSERT_EQ(popped.back(), expect);
        }
    }
    while (!q.empty()) {
        ASSERT_EQ(q.nextTime(), model.begin()->first);
        const int expect = model.begin()->second;
        model.erase(model.begin());
        q.pop().action();
        ASSERT_EQ(popped.back(), expect);
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(popped.size(), static_cast<std::size_t>(next_id));
}

TEST(BucketQueue, SameTickRepushGetsLaterSequence)
{
    // An action that reschedules itself at the *current* tick must run
    // after everything already queued at that tick — the bucket is
    // retired before the action runs, so the re-push starts a fresh
    // bucket with later sequence numbers.
    sim::EventQueue q;
    std::vector<std::string> order;
    q.push(5, [&] {
        order.push_back("a");
        q.push(5, [&] { order.push_back("a2"); });
    });
    q.push(5, [&] { order.push_back("b"); });
    while (!q.empty())
        q.pop().action();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a2"}));
}

TEST(BucketQueue, RecyclesBuckets)
{
    sim::EventQueue q;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 8; ++i)
            q.push(round * 100 + i, [] {});
        while (!q.empty())
            q.pop().action();
    }
    // 80 distinct ticks drained; after the first few rounds the free
    // list satisfies every bucket demand.
    EXPECT_GT(q.bucketsRecycled(), 0u);
    EXPECT_LT(q.bucketsAllocated(), 80u);
}

TEST(BucketQueue, TracksSizeAndScheduledCount)
{
    sim::EventQueue q;
    for (int i = 0; i < 6; ++i)
        q.push(i % 2, [] {});
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.nextTime(), 0);
    // Two distinct ticks, so two buckets.
    EXPECT_EQ(q.bucketsAllocated(), 2u);
    const sim::Event first = q.pop();
    EXPECT_EQ(first.when, 0);
    EXPECT_EQ(first.seq, 0u);
    EXPECT_EQ(q.size(), 5u);
    while (!q.empty())
        q.pop();
    EXPECT_EQ(q.size(), 0u);
    // scheduledCount() is cumulative; popping does not lower it.
    EXPECT_EQ(q.scheduledCount(), 6u);
}

TEST(BucketQueue, FreeListIsCapped)
{
    // At most 256 retired buckets stay parked; the rest are freed, so
    // a second wave of 300 distinct ticks recycles 256 and allocates
    // the other 44.
    sim::EventQueue q;
    for (int wave = 0; wave < 2; ++wave) {
        for (int i = 0; i < 300; ++i)
            q.push(wave * 1000 + i, [] {});
        while (!q.empty())
            q.pop();
    }
    EXPECT_EQ(q.bucketsRecycled(), 256u);
    EXPECT_EQ(q.bucketsAllocated(), 300u + 44u);
}

TEST(EventQueueDeathTest, NullActionPanics)
{
    EXPECT_DEATH(
        {
            sim::EventQueue q;
            q.push(1, std::function<void()>{});
        },
        "null event action");
}

// ---------------------------------------------------------------------
// Coroutine frame pool.

sim::Task<int> trivialTask() { co_return 42; }

TEST(FramePool, ReusesCoroutineFrames)
{
    const auto before = sim::framePoolStats();
    for (int i = 0; i < 64; ++i) {
        auto t = trivialTask();
        EXPECT_TRUE(t.done());
        EXPECT_EQ(t.result(), 42);
    }
    const auto after = sim::framePoolStats();
    if (sim::framePoolEnabled()) {
        EXPECT_GE(after.allocations - before.allocations, 64u);
        // Identical frames: every allocation after the first must be
        // served from the free bins.
        EXPECT_GE(after.poolHits - before.poolHits, 63u);
    } else {
        // Sanitizer build: the pool is a passthrough by design, so
        // asan/tsan keep seeing raw frame lifetimes.
        EXPECT_EQ(after.poolHits, before.poolHits);
    }
}

TEST(FramePool, OversizeRequestsBypassTheBins)
{
    // Requests above the largest size class go straight to the global
    // allocator and are never parked; an in-class free is handed back
    // to the next same-class allocation.
    const auto before = sim::framePoolStats();
    void *big = sim::framePoolAllocate(64 * 1024);
    sim::framePoolDeallocate(big, 64 * 1024);
    const auto mid = sim::framePoolStats();
    void *small = sim::framePoolAllocate(100);
    sim::framePoolDeallocate(small, 100);
    const auto freed = sim::framePoolStats();
    void *again = sim::framePoolAllocate(100);
    sim::framePoolDeallocate(again, 100);
    const auto after = sim::framePoolStats();
    if (sim::framePoolEnabled()) {
        EXPECT_EQ(mid.oversize - before.oversize, 1u);
        EXPECT_EQ(mid.bytesHeld, before.bytesHeld);
        EXPECT_EQ(mid.poolHits, before.poolHits);
        EXPECT_EQ(after.oversize, mid.oversize);
        EXPECT_EQ(after.allocations - before.allocations, 3u);
        EXPECT_EQ(after.poolHits - freed.poolHits, 1u);
    } else {
        EXPECT_EQ(after.oversize, 0u);
        EXPECT_EQ(after.allocations, 0u);
    }
}

} // namespace
