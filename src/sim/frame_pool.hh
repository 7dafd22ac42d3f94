/**
 * @file
 * Thread-local size-class pool for coroutine frames.
 *
 * Every sim::Task coroutine frame (engine run loops, agent rollouts,
 * drivers) is allocated through this pool: freed frames park on a
 * per-thread free list bucketed by size class and are handed back to
 * the next same-class allocation without touching the global
 * allocator. Agent workloads churn through millions of short-lived
 * frames (one per request worker, tool call, engine step helper), so
 * this removes the dominant allocation traffic from the simulator hot
 * path — see DESIGN.md §3k.
 *
 * Determinism: allocation pooling is invisible to simulation results
 * by construction (it changes *where* frames live, never what they
 * compute). Under AddressSanitizer / ThreadSanitizer / MemorySanitizer
 * the pool compiles to a passthrough to the global allocator so frame
 * lifetime bugs stay visible to the sanitizer (the PR 4 / PR 9 chaos
 * gates rely on that).
 */

#ifndef AGENTSIM_SIM_FRAME_POOL_HH
#define AGENTSIM_SIM_FRAME_POOL_HH

#include <cstddef>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AGENTSIM_FRAME_POOL_PASSTHROUGH 1
#endif
#if !defined(AGENTSIM_FRAME_POOL_PASSTHROUGH) && defined(__has_feature)
#if __has_feature(address_sanitizer) || \
    __has_feature(thread_sanitizer) || __has_feature(memory_sanitizer)
#define AGENTSIM_FRAME_POOL_PASSTHROUGH 1
#endif
#endif

namespace agentsim::sim
{

/** Per-thread pool counters (all zero in passthrough builds). */
struct FramePoolStats
{
    /** Allocations served, pool hits included. */
    std::uint64_t allocations = 0;
    /** Allocations served from a free list (no malloc). */
    std::uint64_t poolHits = 0;
    /** Requests larger than the largest size class (passthrough). */
    std::uint64_t oversize = 0;
    /** Bytes currently parked on this thread's free lists. */
    std::uint64_t bytesHeld = 0;
};

/** Allocate @p bytes of frame storage (never returns nullptr). */
void *framePoolAllocate(std::size_t bytes);

/** Return frame storage of @p bytes to the calling thread's pool. */
void framePoolDeallocate(void *p, std::size_t bytes) noexcept;

/** Counters for the calling thread's pool. */
FramePoolStats framePoolStats();

/** False when sanitizers forced the passthrough build. */
constexpr bool
framePoolEnabled()
{
#if defined(AGENTSIM_FRAME_POOL_PASSTHROUGH)
    return false;
#else
    return true;
#endif
}

} // namespace agentsim::sim

#endif // AGENTSIM_SIM_FRAME_POOL_HH
