/**
 * @file
 * Paged KV-cache block manager with content-hash prefix caching and a
 * tiered spill hierarchy (HBM -> host DRAM -> simulated NVMe).
 *
 * Mirrors vLLM's PagedAttention block manager:
 *  - GPU KV memory is divided into fixed-size blocks (default 16
 *    tokens); each sequence owns a block table.
 *  - With prefix caching enabled, every *full* block is identified by a
 *    chain hash of its token contents and all preceding tokens. A new
 *    sequence whose prompt shares a prefix with a cached chain reuses
 *    those blocks (refcounted) and skips their prefill computation.
 *  - Blocks whose refcount drops to zero stay in the cache table on an
 *    LRU list and are evicted only when a fresh block is needed —
 *    so constrained pools exhibit genuine cache thrashing (Fig 17).
 *
 * Below the GPU pool sit up to two spill tiers (Spitfire-style
 * probabilistic migration crossed with dicedb-spill's transparent
 * evict/auto-restore):
 *  - blocks evicted from HBM demote into the DRAM tier with a
 *    configurable admission probability; DRAM capacity victims sink
 *    into the NVMe tier with their own admission probability;
 *  - a prompt allocation restores tier-resident prefix blocks back to
 *    the GPU instead of recomputing them; the caller prices the
 *    transfer (PCIe for DRAM, NVMe read for the flash tier) from the
 *    PromptAlloc tier split;
 *  - each tier is explicitly inclusive (a restore leaves the tier
 *    entry in place, recency refreshed) or exclusive (a restore
 *    reclaims the entry, dicedb-spill semantics — the default);
 *  - parkChain()/prefetchChain() let the serving layer proactively
 *    demote an idle chain while its agent waits on a tool call and
 *    promote it back just before the continuation wakes.
 *
 * Token IDs are opaque 64-bit values; the workload layer generates them
 * deterministically so logically-shared prefixes share literal IDs.
 * Prompts arrive as TokenChains whose block hashes were computed as
 * the prompt grew, so a prompt allocation probes the cache without
 * re-hashing any token.
 */

#ifndef AGENTSIM_KV_BLOCK_MANAGER_HH
#define AGENTSIM_KV_BLOCK_MANAGER_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kv/token_chain.hh"
#include "sim/rng.hh"

namespace agentsim::kv
{

/** Sequence identifier assigned by the serving engine. */
using SeqId = std::uint64_t;

/** Index of a physical KV block. */
using BlockId = std::int32_t;

/** Eviction order for unreferenced cached blocks. */
enum class EvictionPolicy
{
    /** Least recently used (vLLM default). */
    Lru,
    /** First published, first evicted (ignores reuse recency). */
    Fifo,
};

/** Residency discipline between the GPU pool and one spill tier. */
enum class TierMode
{
    /**
     * A restore reclaims the tier entry: contents live in exactly one
     * place, so tier capacity is never wasted on GPU-resident
     * duplicates (dicedb-spill removes restored keys from RocksDB).
     */
    Exclusive,
    /**
     * A restore leaves the tier entry in place with refreshed
     * recency: a later GPU eviction needs no write-back, at the cost
     * of duplicate footprint.
     */
    Inclusive,
};

/** The spill tiers, in restore-cost order. */
enum class Tier
{
    Dram = 0,
    Nvme = 1,
};

/** Spill tiers in the hierarchy below HBM. */
inline constexpr std::size_t kNumSpillTiers = 2;

/** Block-manager configuration. */
struct BlockManagerConfig
{
    /** Number of physical blocks in the pool. */
    std::int64_t numBlocks = 0;
    /** Tokens per block. */
    int blockSize = 16;
    /** Enable content-hash prefix caching. */
    bool enablePrefixCaching = true;
    /** Eviction order among unreferenced cached blocks. */
    EvictionPolicy evictionPolicy = EvictionPolicy::Lru;
    /**
     * Host-memory (CPU DRAM) spill tier, in blocks; 0 disables.
     * Blocks evicted from the GPU cache keep a host copy; later
     * prompt allocations restore them over PCIe instead of
     * recomputing (paper keytakeaway #6).
     */
    std::int64_t hostCacheBlocks = 0;
    /** Probability an HBM eviction victim is admitted into DRAM. */
    double dramAdmitProb = 1.0;
    /** Residency discipline of the DRAM tier. */
    TierMode dramMode = TierMode::Exclusive;
    /**
     * Simulated NVMe spill tier, in blocks; 0 disables. DRAM capacity
     * victims sink here instead of vanishing; restores pay the NVMe
     * read bandwidth instead of PCIe.
     */
    std::int64_t nvmeCacheBlocks = 0;
    /** Probability a DRAM victim (or HBM victim when DRAM is
     *  disabled) is admitted into NVMe. */
    double nvmeAdmitProb = 1.0;
    /** Residency discipline of the NVMe tier. */
    TierMode nvmeMode = TierMode::Exclusive;
    /**
     * Seed of the probabilistic-migration stream. Only consulted when
     * a spill tier is enabled with an admission probability < 1, so
     * deterministic configurations never touch it.
     */
    std::uint64_t seed = 1;
};

/** Result of a prompt allocation. */
struct PromptAlloc
{
    /** Number of leading prompt tokens whose KV was found cached on
     *  the GPU; prefill for these tokens is skipped. */
    std::int64_t cachedTokens = 0;
    /** Tokens restored from the spill tiers (DRAM + NVMe): prefill
     *  skipped, but the tier transfer must be priced by the engine. */
    std::int64_t restoredTokens = 0;
    /** Tokens restored from the DRAM tier (priced at PCIe). */
    std::int64_t dramRestoredTokens = 0;
    /** Tokens restored from the NVMe tier (priced at NVMe read). */
    std::int64_t nvmeRestoredTokens = 0;
    /** Blocks newly taken from the pool for this allocation. */
    std::int64_t freshBlocks = 0;

    /** Tokens whose computation is skipped (cached + restored). */
    std::int64_t
    reusedTokens() const
    {
        return cachedTokens + restoredTokens;
    }
};

/** Per-spill-tier cumulative counters. */
struct TierStats
{
    /** Entries admitted into this tier (HBM demotions or sink-downs). */
    std::int64_t demotedBlocks = 0;
    /** Candidate entries skipped by probabilistic admission. */
    std::int64_t rejectedBlocks = 0;
    /** Entries pushed out of this tier by its own capacity. */
    std::int64_t evictedBlocks = 0;
    /** Tokens restored from this tier back to the GPU. */
    std::int64_t restoredTokens = 0;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::int64_t lookupTokens = 0;
    std::int64_t hitTokens = 0;
    /** Tokens served from the spill tiers (DRAM + NVMe). */
    std::int64_t restoredTokens = 0;
    std::int64_t evictions = 0;
    std::int64_t allocatedBlocks = 0;

    /** DRAM (host memory) spill-tier counters. */
    TierStats dram;
    /** NVMe spill-tier counters. */
    TierStats nvme;

    double
    hitRate() const
    {
        return lookupTokens == 0
                   ? 0.0
                   : static_cast<double>(hitTokens) /
                         static_cast<double>(lookupTokens);
    }
};

/** What prefetchChain() promoted back to the GPU. */
struct PrefetchResult
{
    /** Blocks restored from the spill tiers. */
    std::int64_t blocks = 0;
    /** Tokens restored from the DRAM tier (priced at PCIe). */
    std::int64_t dramTokens = 0;
    /** Tokens restored from the NVMe tier (priced at NVMe read). */
    std::int64_t nvmeTokens = 0;
};

/**
 * The paged block pool. Single-threaded; owned by one serving engine.
 */
class BlockManager
{
  public:
    explicit BlockManager(const BlockManagerConfig &config);

    /**
     * Allocate blocks for a new sequence's prompt.
     *
     * Reuses cached blocks for the longest contiguous prefix of full
     * blocks (when prefix caching is on) and takes fresh blocks for the
     * rest. Fails without side effects if the pool cannot supply the
     * fresh blocks even after evicting all unreferenced cached blocks.
     *
     * @param seq_id caller-unique sequence id.
     * @param prompt the full prompt; its block size must be the
     *        pool's.
     * @return allocation summary, or nullopt if out of blocks.
     */
    std::optional<PromptAlloc> allocatePrompt(SeqId seq_id,
                                              const TokenChain &prompt);

    /**
     * Append one generated token to a sequence, taking a fresh block at
     * block boundaries. @return false if the pool is exhausted (caller
     * should preempt).
     */
    bool appendToken(SeqId seq_id, TokenId token);

    /** Release all blocks of a sequence (request finished/preempted). */
    void release(SeqId seq_id);

    /**
     * Drop every sequence, cached block and spill-tier entry — the KV
     * state after a node crash and restart. Cumulative CacheStats are
     * preserved (they describe the node's history, not its contents).
     */
    void reset();

    /**
     * Inject externally computed KV for @p prefix: every full block
     * is allocated and published as if prefilled here (disaggregated
     * serving transfers KV from a prefill node). Existing cached
     * blocks are left in place.
     *
     * @return the number of blocks *newly* populated — the caller
     * sizes the wire transfer from it, since already-resident blocks
     * never cross the interconnect — or -1 when the prefix can never
     * fit (more full blocks than the pool has). The preload may be
     * partial: it stops (returning the count so far) once the pool is
     * full or once placing another block would evict a block of this
     * very prefix, so every block paid for stays resident and the
     * resident run is a contiguous head of the prefix.
     */
    std::int64_t preloadPrefix(const TokenChain &prefix);

    /**
     * Snapshot a sequence's chain (prompt plus generated output) for
     * live migration. The sequence stays allocated; the caller
     * releases it once the snapshot is handed off. The chain is
     * enough to rebuild the sequence anywhere: its block hashes are
     * content-derived.
     *
     * Deliberately carries no source-side block count: the source's
     * chain includes prefix-cached blocks shared with other sequences,
     * so sizing the wire transfer from it over-charges for blocks the
     * target reuses from its own cache. Transfer sizing belongs to the
     * *importing* side: importChain()'s PromptAlloc reports exactly
     * the tokens that missed.
     */
    TokenChain exportChain(SeqId seq_id) const;

    /**
     * Rebuild a migrated chain on this (target) pool: allocate blocks
     * for @p chain exactly like a prompt allocation, reusing any
     * locally cached prefix — reused tokens need no interconnect
     * transfer, so the returned PromptAlloc tells the engine how many
     * tokens must actually cross the wire. @return nullopt if the pool
     * cannot hold the chain (caller falls back to recompute).
     */
    std::optional<PromptAlloc> importChain(SeqId seq_id,
                                           const TokenChain &chain);

    /**
     * Tool-call-aware parking: demote every currently unreferenced
     * GPU-cached full block of @p chain into the DRAM tier (or NVMe
     * when DRAM is disabled), freeing the HBM blocks. The
     * demotion is deliberate, so it bypasses the probabilistic
     * admission filter. Blocks referenced by live sequences are
     * skipped (they are not idle). No-op when no tier is enabled or
     * prefix caching is off. @return blocks demoted.
     */
    std::int64_t parkChain(const TokenChain &chain);

    /**
     * Promote @p chain back to the GPU ahead of a continuation:
     * walks the chain's full blocks, restoring spill-tier entries
     * onto fresh GPU blocks (published, parked on the eviction list
     * exactly like preloadPrefix) until the first block resident
     * nowhere. The caller prices the reported per-tier
     * token counts as a background transfer. Stops early when the
     * pool has no free-or-evictable block left.
     */
    PrefetchResult prefetchChain(const TokenChain &chain);

    /** True if the sequence is currently allocated. */
    bool hasSeq(SeqId seq_id) const { return seqs_.contains(seq_id); }

    /** Number of tokens currently stored for a sequence. */
    std::int64_t seqTokens(SeqId seq_id) const;

    /**
     * Blocks a prompt of @p token_count would need *ignoring* cache
     * hits — the admission-control upper bound.
     */
    std::int64_t blocksNeeded(std::int64_t token_count) const;

    /** Blocks immediately available: free plus evictable. */
    std::int64_t availableBlocks() const;

    /** Blocks on the free list (never-used or fully recycled). */
    std::int64_t freeBlocks() const
    {
        return static_cast<std::int64_t>(freeList_.size());
    }

    /** Unreferenced cached blocks awaiting reuse or eviction. */
    std::int64_t evictableBlocks() const
    {
        return static_cast<std::int64_t>(evictable_.size());
    }

    /** Blocks currently resident in the DRAM (host) spill tier. */
    std::int64_t hostCachedBlocks() const
    {
        return tierBlocks(Tier::Dram);
    }

    /** Blocks currently resident in the NVMe spill tier. */
    std::int64_t nvmeCachedBlocks() const
    {
        return tierBlocks(Tier::Nvme);
    }

    /** Blocks currently resident in spill tier @p tier. */
    std::int64_t tierBlocks(Tier tier) const
    {
        return static_cast<std::int64_t>(
            tiers_[static_cast<std::size_t>(tier)].entries.size());
    }

    /** Configured capacity of spill tier @p tier, in blocks. */
    std::int64_t tierCapacity(Tier tier) const
    {
        return tiers_[static_cast<std::size_t>(tier)].capacity;
    }

    /** True when at least one spill tier has capacity. */
    bool spillTiersEnabled() const
    {
        return tiers_[0].enabled() || tiers_[1].enabled();
    }

    /** Blocks referenced by live sequences (shared counted once). */
    std::int64_t usedBlocks() const;

    /**
     * Gauge: blocks pinned by live sequences right now. The telemetry
     * sampler reads this directly instead of deriving occupancy from
     * CacheStats deltas.
     */
    std::int64_t blocksInUse() const { return usedBlocks(); }

    /**
     * Gauge: blocks not pinned by any sequence (free list plus
     * unreferenced cached blocks awaiting reuse or eviction).
     */
    std::int64_t blocksFree() const
    {
        return totalBlocks() - usedBlocks();
    }

    /** Pool size in blocks. */
    std::int64_t totalBlocks() const { return config_.numBlocks; }

    int blockSize() const { return config_.blockSize; }

    bool prefixCachingEnabled() const
    {
        return config_.enablePrefixCaching;
    }

    const CacheStats &stats() const { return stats_; }

    /** Verify internal invariants; panics on violation (tests). */
    void checkInvariants() const;

  private:
    struct Block
    {
        int refCount = 0;
        std::uint64_t hash = 0;
        /** True if this block is the cache-table entry for its hash. */
        bool inTable = false;
        /** Eviction-order key when evictable; 0 otherwise. */
        std::uint64_t lruKey = 0;
        /** Publish-order key (FIFO eviction). */
        std::uint64_t publishKey = 0;
    };

    struct Seq
    {
        std::vector<BlockId> blocks;
        /** Every token stored so far (prompt plus appended). */
        TokenChain chain;
    };

    /** One spill tier: an LRU-ordered hash set (contents implicit). */
    struct SpillTier
    {
        std::int64_t capacity = 0;
        double admitProb = 1.0;
        TierMode mode = TierMode::Exclusive;
        /** hash -> LRU key. */
        std::unordered_map<std::uint64_t, std::uint64_t> entries;
        /** LRU key -> hash, ordered oldest first. */
        std::map<std::uint64_t, std::uint64_t> lru;

        bool enabled() const { return capacity > 0; }
        bool contains(std::uint64_t hash) const
        {
            return entries.contains(hash);
        }
    };

    BlockManagerConfig config_;
    std::vector<Block> blocks_;
    std::vector<BlockId> freeList_;
    /** hash -> block holding that content. */
    std::unordered_map<std::uint64_t, BlockId> cacheTable_;
    /** lruKey -> block, ordered oldest first. */
    std::map<std::uint64_t, BlockId> evictable_;
    std::unordered_map<SeqId, Seq> seqs_;
    std::uint64_t lruCounter_ = 1;
    CacheStats stats_;

    /** Spill hierarchy: [0] DRAM, [1] NVMe. */
    std::array<SpillTier, kNumSpillTiers> tiers_;
    /**
     * Probabilistic-migration stream. Engaged only when some enabled
     * tier has admitProb < 1; never consulted otherwise, keeping
     * deterministic configurations bit-identical whether or not the
     * stream exists.
     */
    std::optional<sim::Rng> tierRng_;

    /** Mutable per-tier counter access. */
    TierStats &tierStats(std::size_t index);

    /**
     * Offer a hash evicted from HBM to the spill hierarchy: admit
     * into the first enabled tier with its admission probability
     * (bypassed when @p forced — deliberate parking).
     */
    void demoteFromGpu(std::uint64_t hash, bool forced);

    /**
     * Insert @p hash into tier @p index (refreshing recency if
     * already resident); a capacity victim sinks into the next
     * enabled tier through its own admission filter.
     */
    void spillToTier(std::size_t index, std::uint64_t hash);

    /**
     * A restore consumed tier @p index's entry for @p hash: reclaim
     * it (Exclusive) or refresh its recency (Inclusive).
     */
    void noteTierRestore(std::size_t index, std::uint64_t hash);

    /** Bernoulli draw against tier @p index's admission probability. */
    bool tierAdmits(std::size_t index);

    /** Panic unless @p chain was hashed at this pool's block size. */
    void requireBlockSize(const TokenChain &chain) const;

    /** Take one block from free list or evict the LRU cached block. */
    BlockId acquireFreshBlock();

    /** Re-reference a cached block (removing it from the LRU if idle). */
    void refCachedBlock(BlockId id);

    /** Try to publish a just-completed block into the cache table. */
    void publishBlock(BlockId id, std::uint64_t hash);

    /** Drop one reference; recycle or park on the LRU at zero. */
    void unrefBlock(BlockId id);

    /** Publish a caller-less block parked directly on the LRU
     *  (preload / prefetch placement). */
    void publishEvictable(BlockId id, std::uint64_t hash);
};

} // namespace agentsim::kv

#endif // AGENTSIM_KV_BLOCK_MANAGER_HH
