/**
 * @file
 * Simulator self-timing export: the simulation executive's own
 * performance (events processed, host wall-clock time, events/sec) as
 * registry gauges. This is what lets a perf report compare *simulator*
 * throughput across commits without any external timer plumbing — the
 * executive already timed its run loops.
 */

#ifndef AGENTSIM_TELEMETRY_SIM_METRICS_HH
#define AGENTSIM_TELEMETRY_SIM_METRICS_HH

#include "sim/frame_pool.hh"
#include "sim/simulation.hh"
#include "telemetry/registry.hh"

namespace agentsim::telemetry
{

/** Export agentsim_sim_* self-timing gauges for @p sim. */
inline void
exportSimMetrics(MetricsRegistry &registry, const sim::Simulation &sim)
{
    registry
        .gauge("agentsim_sim_events_processed",
               "Events processed by the simulation executive")
        .set(static_cast<double>(sim.processedEvents()));
    registry
        .gauge("agentsim_sim_wall_seconds",
               "Host wall-clock seconds inside run()/runUntil()")
        .set(sim.wallSeconds());
    registry
        .gauge("agentsim_sim_events_per_second",
               "Simulator throughput: events per host wall-clock second")
        .set(sim.eventsPerSecond());
    registry
        .gauge("agentsim_sim_virtual_seconds",
               "Virtual time reached by the simulation clock")
        .set(sim.nowSec());
    registry
        .gauge("agentsim_sim_queue_buckets_allocated",
               "Event-queue tick buckets allocated (pool misses)")
        .set(static_cast<double>(sim.queueBucketsAllocated()));
    registry
        .gauge("agentsim_sim_queue_buckets_recycled",
               "Event-queue tick buckets served from the free list")
        .set(static_cast<double>(sim.queueBucketsRecycled()));
    const sim::FramePoolStats frames = sim::framePoolStats();
    registry
        .gauge("agentsim_sim_frame_pool_allocations",
               "Coroutine frame allocations routed through the pool")
        .set(static_cast<double>(frames.allocations));
    registry
        .gauge("agentsim_sim_frame_pool_hits",
               "Coroutine frames served from a thread-local bin")
        .set(static_cast<double>(frames.poolHits));
}

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_SIM_METRICS_HH
