/**
 * @file
 * Unit and property tests for the paged KV-cache block manager:
 * allocation, prefix-cache hits, refcounting, LRU eviction, and
 * invariant preservation under randomized workloads.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "kv/block_manager.hh"
#include "sim/rng.hh"
#include "workload/token_stream.hh"

namespace agentsim::kv
{

/**
 * Reaches into a pool's private state so that a death test can corrupt
 * one structure and show that the next operation touching it panics.
 */
struct KvTestAccess
{
    struct Counters
    {
        std::int64_t referenced;
        std::int64_t inTable;
        std::size_t liveSeqs;
    };

    static Counters counters(const BlockManager &m)
    {
        return {m.referencedBlocks_, m.tableBlocks_, m.liveSeqs_};
    }
    static std::vector<BlockId> &freeList(BlockManager &m)
    {
        return m.freeList_;
    }
    static BlockId lruHead(const BlockManager &m) { return m.lruHead_; }
    static int &refCount(BlockManager &m, BlockId id)
    {
        return m.block(id).refCount;
    }
    static std::uint64_t &lruKey(BlockManager &m, BlockId id)
    {
        return m.block(id).lruKey;
    }
    static BlockId &lruNext(BlockManager &m, BlockId id)
    {
        return m.block(id).lruNext;
    }
    static std::int64_t &tierCapacity(BlockManager &m, Tier tier)
    {
        return m.tiers_[static_cast<std::size_t>(tier)].capacity;
    }
    static LruSlab &tier(BlockManager &m, Tier tier)
    {
        return m.tiers_[static_cast<std::size_t>(tier)].entries;
    }
    static FlatIndex &seqIndex(BlockManager &m) { return m.seqIndex_; }
    static FlatIndex &index(LruSlab &slab) { return slab.index_; }
    static std::uint64_t &key(LruSlab &slab, std::uint64_t hash)
    {
        return slab.node(slab.index_.find(hash)).key;
    }
};

} // namespace agentsim::kv

namespace
{

using namespace agentsim;
using kv::BlockManager;
using kv::BlockManagerConfig;
using kv::KvTestAccess;
using kv::TokenId;

std::vector<TokenId>
tokenRange(TokenId start, std::size_t n)
{
    std::vector<TokenId> v(n);
    std::iota(v.begin(), v.end(), start);
    return v;
}

/** @p tokens as a chain in @p mgr's block size. */
kv::TokenChain
chainOf(const BlockManager &mgr, std::span<const TokenId> tokens)
{
    return kv::TokenChain(mgr.blockSize(), tokens);
}

BlockManagerConfig
cfg(std::int64_t blocks, int block_size = 16, bool prefix = true,
    std::int64_t host_blocks = 0)
{
    BlockManagerConfig c;
    c.numBlocks = blocks;
    c.blockSize = block_size;
    c.enablePrefixCaching = prefix;
    c.hostCacheBlocks = host_blocks;
    return c;
}

TEST(BlockManager, AllocateAndRelease)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 50); // 4 blocks (3 full + partial)
    auto alloc = mgr.allocatePrompt(1, chainOf(mgr, prompt));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 0);
    EXPECT_EQ(alloc->freshBlocks, 4);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    EXPECT_EQ(mgr.freeBlocks(), 96);
    mgr.release(1);
    EXPECT_EQ(mgr.usedBlocks(), 0);
    // The 3 full blocks stay cached (evictable); the partial one is
    // returned to the free list.
    EXPECT_EQ(mgr.evictableBlocks(), 3);
    EXPECT_EQ(mgr.freeBlocks(), 97);
    mgr.checkInvariants();
}

TEST(BlockManager, BlocksNeededRoundsUp)
{
    BlockManager mgr(cfg(10, 16));
    EXPECT_EQ(mgr.blocksNeeded(1), 1);
    EXPECT_EQ(mgr.blocksNeeded(16), 1);
    EXPECT_EQ(mgr.blocksNeeded(17), 2);
    EXPECT_EQ(mgr.blocksNeeded(0), 0);
}

TEST(BlockManager, PrefixHitOnIdenticalPrompt)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64); // exactly 4 full blocks
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt)).has_value());
    auto second = mgr.allocatePrompt(2, chainOf(mgr, prompt));
    ASSERT_TRUE(second.has_value());
    // All four blocks are shared with the live first sequence.
    EXPECT_EQ(second->cachedTokens, 64);
    EXPECT_EQ(second->freshBlocks, 0);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    mgr.checkInvariants();
}

TEST(BlockManager, PrefixHitAfterRelease)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt)).has_value());
    mgr.release(1);
    auto second = mgr.allocatePrompt(2, chainOf(mgr, prompt));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cachedTokens, 64);
    EXPECT_EQ(mgr.stats().evictions, 0);
    mgr.checkInvariants();
}

TEST(BlockManager, PartialPrefixHit)
{
    BlockManager mgr(cfg(100));
    auto a = tokenRange(0, 64);
    // b shares the first 32 tokens (2 blocks), then diverges.
    auto b = tokenRange(0, 32);
    const auto tail = tokenRange(1000, 32);
    b.insert(b.end(), tail.begin(), tail.end());
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, a)).has_value());
    auto alloc_b = mgr.allocatePrompt(2, chainOf(mgr, b));
    ASSERT_TRUE(alloc_b.has_value());
    EXPECT_EQ(alloc_b->cachedTokens, 32);
    EXPECT_EQ(alloc_b->freshBlocks, 2);
    mgr.checkInvariants();
}

TEST(BlockManager, NoHitsWithCachingDisabled)
{
    BlockManager mgr(cfg(100, 16, false));
    const auto prompt = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt)).has_value());
    mgr.release(1);
    auto second = mgr.allocatePrompt(2, chainOf(mgr, prompt));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cachedTokens, 0);
    EXPECT_EQ(mgr.stats().hitTokens, 0);
    // Without caching, released blocks go straight to the free list.
    EXPECT_EQ(mgr.evictableBlocks(), 0);
    mgr.checkInvariants();
}

TEST(BlockManager, PartialLastBlockNeverCached)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 40); // 2 full + 1 partial
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt)).has_value());
    mgr.release(1);
    auto second = mgr.allocatePrompt(2, chainOf(mgr, prompt));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cachedTokens, 32); // only the full blocks
    mgr.checkInvariants();
}

TEST(BlockManager, AllocationFailsWhenPoolExhausted)
{
    BlockManager mgr(cfg(6));
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 64))).has_value());
    // Two idle cached blocks: evictable, but too few for the prompt.
    ASSERT_TRUE(
        mgr.allocatePrompt(3, chainOf(mgr, tokenRange(9000, 32))).has_value());
    mgr.release(3);
    const std::int64_t lookups = mgr.stats().lookupTokens;
    const std::int64_t free_blocks = mgr.freeBlocks();
    const std::int64_t evictable = mgr.evictableBlocks();
    EXPECT_EQ(evictable, 2);
    // Different content: no hits possible, needs 4 fresh blocks.
    EXPECT_FALSE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(5000, 64))).has_value());
    // The failure leaves the pool and the sequences untouched (no
    // slab slot taken); only the probe counts in the cache stats.
    mgr.checkInvariants();
    EXPECT_EQ(mgr.stats().lookupTokens, lookups + 64);
    EXPECT_FALSE(mgr.hasSeq(2));
    EXPECT_EQ(mgr.freeBlocks(), free_blocks);
    EXPECT_EQ(mgr.evictableBlocks(), evictable);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    mgr.release(1);
    EXPECT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(5000, 64))).has_value());
    mgr.checkInvariants();
}

TEST(BlockManager, EvictionRecyclesCachedBlocks)
{
    BlockManager mgr(cfg(4));
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 64))).has_value());
    mgr.release(1); // 4 blocks now evictable
    EXPECT_EQ(mgr.evictableBlocks(), 4);
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(9000, 64))).has_value());
    EXPECT_EQ(mgr.stats().evictions, 4);
    mgr.checkInvariants();
}

TEST(BlockManager, LruEvictsOldestFirst)
{
    BlockManager mgr(cfg(8));
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 64))).has_value());
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(1000, 64))).has_value());
    mgr.release(1); // older
    mgr.release(2); // newer
    // Need 4 fresh blocks: evicts seq 1's blocks (oldest).
    ASSERT_TRUE(
        mgr.allocatePrompt(3, chainOf(mgr, tokenRange(2000, 64))).has_value());
    // Seq 2's prefix must still be cached.
    auto again = mgr.allocatePrompt(4, chainOf(mgr, tokenRange(1000, 64)));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->cachedTokens, 64);
    mgr.checkInvariants();
}

// The LRU victim list loses its head to a hit on an idle cached
// block, its tail to parkChain and a middle block to a preload's
// recency refresh (which re-parks it at the tail). Evictions must
// then follow the new order, each probe below showing that the
// previous victim left the GPU.
TEST(BlockManager, LruListUnlinksHeadMiddleAndTail)
{
    BlockManager mgr(cfg(5, 16, true, 8));
    const auto chain = [&mgr](TokenId k) {
        return chainOf(mgr, tokenRange(k * 1000, 16)); // one full block
    };
    const auto alloc = [&mgr](kv::SeqId id, const kv::TokenChain &c) {
        const auto a = mgr.allocatePrompt(id, c);
        mgr.checkInvariants();
        return a;
    };
    // List, oldest first: A B C D E.
    for (TokenId k = 0; k < 5; ++k) {
        ASSERT_TRUE(alloc(k + 1, chain(k)).has_value());
        mgr.release(k + 1);
        mgr.checkInvariants();
    }
    ASSERT_EQ(mgr.evictableBlocks(), 5);

    const auto hit = alloc(10, chain(0)); // head A: B C D E
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cachedTokens, 16);
    EXPECT_EQ(mgr.parkChain(chain(4)), 1); // tail E: B C D
    mgr.checkInvariants();
    EXPECT_EQ(mgr.preloadPrefix(chain(2)), 0); // middle C: B D C
    mgr.checkInvariants();
    EXPECT_EQ(mgr.evictableBlocks(), 3);
    EXPECT_EQ(mgr.freeBlocks(), 1);

    ASSERT_TRUE(alloc(20, chain(5)).has_value()); // the free block
    EXPECT_EQ(mgr.stats().evictions, 0);
    ASSERT_TRUE(alloc(21, chain(6)).has_value()); // evicts B
    EXPECT_EQ(mgr.stats().evictions, 1);
    // Each earlier victim is restored from DRAM, evicting the next.
    for (const TokenId k : {1, 3, 2}) {
        SCOPED_TRACE(k);
        if (k == 2)
            mgr.release(10); // frees A as the last victim
        const auto probe = alloc(30 + k, chain(k));
        ASSERT_TRUE(probe.has_value());
        EXPECT_EQ(probe->cachedTokens, 0);
        EXPECT_EQ(probe->restoredTokens, 16);
    }
    EXPECT_EQ(mgr.stats().evictions, 4);
    EXPECT_EQ(mgr.evictableBlocks(), 0);
    EXPECT_EQ(mgr.hostCachedBlocks(), 2); // E, parked, and A
}

// A released sequence's slab slot serves the next sequence: nothing
// of the old one shows through, and reset() frees every slot.
TEST(BlockManager, ReleasedSequenceSlotIsReused)
{
    BlockManager mgr(cfg(16));
    const auto longer = chainOf(mgr, tokenRange(0, 40));
    const auto shorter = chainOf(mgr, tokenRange(1000, 20));
    ASSERT_TRUE(mgr.allocatePrompt(1, longer).has_value());
    mgr.release(1);
    ASSERT_TRUE(mgr.allocatePrompt(2, shorter).has_value());
    mgr.checkInvariants();
    EXPECT_FALSE(mgr.hasSeq(1));
    EXPECT_TRUE(mgr.hasSeq(2));
    EXPECT_EQ(mgr.exportChain(2), shorter);
    EXPECT_EQ(mgr.seqTokens(2), 20);
    EXPECT_EQ(mgr.usedBlocks(), 2);

    mgr.reset();
    EXPECT_FALSE(mgr.hasSeq(2));
    ASSERT_TRUE(mgr.allocatePrompt(2, longer).has_value());
    EXPECT_EQ(mgr.exportChain(2), longer);
    mgr.checkInvariants();
}

// A handle outlives its sequence only as a panic: every access checks
// its slot's bounds, liveness and owner, so a released sequence, a slot
// since claimed by another id and a reset() pool all refuse it.
TEST(BlockManager, StaleHandleDies)
{
    BlockManager mgr(cfg(16));
    const auto prompt = chainOf(mgr, tokenRange(0, 20));
    const auto first = mgr.allocatePrompt(1, prompt);
    ASSERT_TRUE(first.has_value());
    const kv::SeqHandle h1 = first->seq;
    EXPECT_TRUE(mgr.hasSeq(h1));
    EXPECT_EQ(mgr.handle(1).slot, h1.slot);
    EXPECT_EQ(mgr.seqTokens(h1), 20);
    EXPECT_TRUE(mgr.appendToken(h1, 7, 0));
    EXPECT_EQ(mgr.seqTokens(1), 21);

    // Released: the slot is free.
    mgr.release(h1);
    EXPECT_FALSE(mgr.hasSeq(h1));
    EXPECT_DEATH((void)mgr.seqTokens(h1), "stale sequence 1");
    EXPECT_DEATH((void)mgr.appendToken(h1, 8, 0), "stale sequence 1");
    EXPECT_DEATH(mgr.release(h1), "stale sequence 1");

    // Reused: sequence 2 claims the same slot.
    const auto second = mgr.allocatePrompt(2, prompt);
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->seq.slot, h1.slot);
    EXPECT_FALSE(mgr.hasSeq(h1));
    EXPECT_DEATH((void)mgr.seqTokens(h1), "stale sequence 1");
    EXPECT_DEATH((void)mgr.exportChain(h1), "stale sequence 1");
    EXPECT_EQ(mgr.seqTokens(second->seq), 20);

    // Reset: the slab is empty, so the slot is out of range.
    mgr.reset();
    EXPECT_FALSE(mgr.hasSeq(second->seq));
    EXPECT_DEATH((void)mgr.seqTokens(second->seq), "stale sequence 2");
    EXPECT_DEATH((void)mgr.appendToken(second->seq, 9, 0),
                 "stale sequence 2");
    // An unknown id takes the same path.
    EXPECT_FALSE(mgr.hasSeq(3));
    EXPECT_DEATH((void)mgr.seqTokens(3), "stale sequence 3");
    mgr.checkInvariants();
}

// Sequences sharing their only block can outnumber the pool's blocks;
// the sequence index grows to hold them.
TEST(BlockManager, SharedBlocksLetSequencesOutnumberThePool)
{
    BlockManager mgr(cfg(2));
    const auto prompt = chainOf(mgr, tokenRange(0, 16)); // one full block
    for (kv::SeqId id = 1; id <= 100; ++id)
        ASSERT_TRUE(mgr.allocatePrompt(id, prompt).has_value()) << id;
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 1);
    for (kv::SeqId id = 1; id <= 100; ++id) {
        EXPECT_EQ(mgr.seqTokens(id), 16);
        mgr.release(id);
    }
    mgr.checkInvariants();
    EXPECT_EQ(mgr.evictableBlocks(), 1);
}

TEST(BlockManager, AppendTokenCrossesBlockBoundary)
{
    BlockManager mgr(cfg(10, 16));
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 16))).has_value());
    EXPECT_EQ(mgr.usedBlocks(), 1);
    // Token 17 needs a second block.
    EXPECT_TRUE(mgr.appendToken(1, 100, 0));
    EXPECT_EQ(mgr.usedBlocks(), 2);
    EXPECT_EQ(mgr.seqTokens(1), 17);
    mgr.checkInvariants();
}

TEST(BlockManager, AppendFailsWhenOutOfBlocks)
{
    BlockManager mgr(cfg(1, 16));
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 16))).has_value());
    EXPECT_FALSE(mgr.appendToken(1, 100, 0));
    mgr.checkInvariants();
}

TEST(BlockManager, GeneratedBlocksBecomeCached)
{
    BlockManager mgr(cfg(50, 16));
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 16))).has_value());
    // Generate 16 tokens of an output stream to fill a second block.
    const std::uint64_t output = workload::streamId(1, "kv.out");
    for (std::int64_t i = 0; i < 16; ++i)
        ASSERT_TRUE(mgr.appendToken(1, output, i));
    mgr.release(1);
    // A new prompt equal to prompt+generation should fully hit.
    auto full = tokenRange(0, 16);
    const auto gen = workload::makeTokens(output, 16);
    full.insert(full.end(), gen.begin(), gen.end());
    auto alloc = mgr.allocatePrompt(2, chainOf(mgr, full));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 32);
    mgr.checkInvariants();
}

// Decode publishes each block it fills under the chain hash of prompt
// + output, so the next prompt, which appends the output as a run,
// hits every full block: for prompts ending mid-block and on a block
// boundary, and in any block size.
TEST(BlockManager, DecodePublishesWhatTheOutputRunHits)
{
    for (const int bs : {1, 16, 17}) {
        for (const std::int64_t prompt_len :
             {std::int64_t{bs}, std::int64_t{3 * bs + 5}, std::int64_t{40}}) {
            SCOPED_TRACE(testing::Message()
                         << "bs " << bs << " prompt " << prompt_len);
            BlockManager mgr(cfg(4096, bs));
            kv::TokenChain prompt(bs);
            prompt.appendStream(workload::streamId(2, "kv.prompt"), 0,
                                prompt_len);
            ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
            const kv::TokenRun output{workload::streamId(2, "kv.out"), 0,
                                      45};
            for (std::int64_t i = 0; i < output.count; ++i)
                ASSERT_TRUE(mgr.appendToken(1, output.stream, i));
            kv::TokenChain next = prompt;
            next.append(output);
            EXPECT_EQ(mgr.exportChain(1), next);
            mgr.release(1);

            next.appendStream(workload::streamId(2, "kv.obs"), 0, 30);
            const auto alloc = mgr.allocatePrompt(2, next);
            ASSERT_TRUE(alloc.has_value());
            EXPECT_EQ(alloc->cachedTokens,
                      (prompt_len + output.count) / bs * bs);
            mgr.checkInvariants();
        }
    }
}

TEST(BlockManager, HitRateStatistic)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt)).has_value());
    ASSERT_TRUE(mgr.allocatePrompt(2, chainOf(mgr, prompt)).has_value());
    // 128 full-block tokens probed, 64 hit.
    EXPECT_EQ(mgr.stats().lookupTokens, 128);
    EXPECT_EQ(mgr.stats().hitTokens, 64);
    EXPECT_DOUBLE_EQ(mgr.stats().hitRate(), 0.5);
}

TEST(BlockManager, SharedPrefixAcrossParallelSequences)
{
    // Models LATS expanding many children with a common prompt: the
    // shared prefix occupies one set of blocks regardless of fanout.
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64);
    for (kv::SeqId s = 1; s <= 8; ++s)
        ASSERT_TRUE(mgr.allocatePrompt(s, chainOf(mgr, prompt)).has_value());
    EXPECT_EQ(mgr.usedBlocks(), 4); // not 32
    for (kv::SeqId s = 1; s <= 8; ++s)
        mgr.release(s);
    mgr.checkInvariants();
}

TEST(BlockManager, DivergingGenerationsKeepPrivateBlocks)
{
    BlockManager mgr(cfg(100, 16));
    const auto prompt = tokenRange(0, 32);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt)).has_value());
    ASSERT_TRUE(mgr.allocatePrompt(2, chainOf(mgr, prompt)).has_value());
    EXPECT_EQ(mgr.usedBlocks(), 2);
    // Each generates different tokens: private third blocks.
    ASSERT_TRUE(mgr.appendToken(1, 111, 0));
    ASSERT_TRUE(mgr.appendToken(2, 222, 0));
    EXPECT_EQ(mgr.usedBlocks(), 4);
    mgr.checkInvariants();
}

// Regression: a HostRestore entry preceding a GpuHit entry in the
// same allocatePrompt commit used to acquire its fresh block while the
// hit block was still on the eviction list; with an empty free list
// the eviction could pick the to-be-reused hit block as the victim,
// aliasing one physical block into two sequence positions (and, in
// longer runs, tripping the "idle cached block not on LRU" assert).
TEST(BlockManager, RestoreMustNotEvictPendingHit)
{
    // Pool of 2 blocks, host tier on.
    BlockManager mgr(cfg(2, 16, true, 4));
    const auto shared = tokenRange(0, 32); // 2 full blocks: h0, h1

    // Publish h0 + h1, then park both on the eviction list
    // (h0 older than h1).
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, shared)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.evictableBlocks(), 2);
    EXPECT_EQ(mgr.freeBlocks(), 0);

    // One fresh block of different content evicts h0's block (LRU),
    // spilling h0 to the host tier; h1 stays GPU-cached.
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(9000, 16))).has_value());
    EXPECT_EQ(mgr.stats().evictions, 1);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    mgr.release(2);

    // Free list is empty; eviction list holds h1's block (older key)
    // and seq 2's block (newer). Re-allocating the shared prompt
    // probes h0 as a host restore followed by h1 as a GPU hit. The
    // restore's fresh block must NOT come from evicting h1's block.
    EXPECT_EQ(mgr.freeBlocks(), 0);
    auto alloc = mgr.allocatePrompt(3, chainOf(mgr, shared));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 16);
    EXPECT_EQ(alloc->cachedTokens, 16);
    // Two distinct physical blocks must back the two positions.
    EXPECT_EQ(mgr.usedBlocks(), 2);
    mgr.checkInvariants();
    mgr.release(3);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
}

// Same hazard at three blocks: restore at position 0, hits at 1 and 2.
TEST(BlockManager, RestoreEvictionSkipsAllPendingHits)
{
    BlockManager mgr(cfg(3, 16, true, 4));
    const auto shared = tokenRange(0, 48); // h0, h1, h2
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, shared)).has_value());
    mgr.release(1);
    // Evict h0's block only.
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(9000, 16))).has_value());
    EXPECT_EQ(mgr.stats().evictions, 1);
    mgr.release(2);
    EXPECT_EQ(mgr.freeBlocks(), 0);

    auto alloc = mgr.allocatePrompt(3, chainOf(mgr, shared));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 16);
    EXPECT_EQ(alloc->cachedTokens, 32);
    EXPECT_EQ(mgr.usedBlocks(), 3);
    mgr.checkInvariants();
    mgr.release(3);
    mgr.checkInvariants();
}

// Property test: randomized allocate/append/release sequences keep all
// internal invariants and never lose blocks.
class BlockManagerFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlockManagerFuzz, InvariantsHoldUnderRandomWorkload)
{
    sim::Rng rng(GetParam(), "kv-fuzz", 0);
    BlockManager mgr(cfg(64, 8));
    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;

    for (int step = 0; step < 2000; ++step) {
        const double action = rng.uniform();
        if (action < 0.4) {
            // Allocate a prompt; half the time reuse a popular prefix.
            const bool popular = rng.bernoulli(0.5);
            const TokenId base =
                popular ? 0
                        : static_cast<TokenId>(
                              rng.uniformInt(1, 1000) * 10000);
            const auto len =
                static_cast<std::size_t>(rng.uniformInt(1, 80));
            const auto prompt = tokenRange(base, len);
            const kv::SeqId id = next_id++;
            if (mgr.allocatePrompt(id, chainOf(mgr, prompt)).has_value())
                live.push_back(id);
        } else if (action < 0.8 && !live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            // Token 0 of a fresh stream; may fail, that's fine.
            mgr.appendToken(live[idx], rng.next(), 0);
        } else if (!live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.release(live[idx]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
        if (step % 50 == 0)
            mgr.checkInvariants();
    }
    for (kv::SeqId id : live)
        mgr.release(id);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 1234));

/** The per-allocation check, run on every live sequence. */
void
checkEachLive(const BlockManager &mgr, const std::vector<kv::SeqId> &live)
{
    for (const kv::SeqId id : live)
        mgr.checkInvariants(mgr.handle(id));
}

/** After reset() every pool counter reads zero and the walk holds. */
void
expectResetZeroesCounters(BlockManager &mgr)
{
    mgr.reset();
    const KvTestAccess::Counters c = KvTestAccess::counters(mgr);
    EXPECT_EQ(c.referenced, 0);
    EXPECT_EQ(c.inTable, 0);
    EXPECT_EQ(c.liveSeqs, 0U);
    mgr.checkInvariants();
}

// Host-tier fuzz: the same randomized workload over a tight pool with
// the spill tier on, so restore-plus-hit commits (the aliasing bug
// class above) occur under an empty free list. The full walk runs after
// every allocation, the per-allocation check on every live sequence
// after every operation.
class BlockManagerHostFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlockManagerHostFuzz, InvariantsHoldWithHostTier)
{
    sim::Rng rng(GetParam(), "kv-host-fuzz", 0);
    BlockManager mgr(cfg(24, 8, true, 32));
    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;

    for (int step = 0; step < 3000; ++step) {
        const double action = rng.uniform();
        if (action < 0.5) {
            // Mostly popular prefixes so hits and restores interleave.
            const bool popular = rng.bernoulli(0.7);
            const TokenId base =
                popular ? static_cast<TokenId>(
                              rng.uniformInt(0, 2) * 100000)
                        : static_cast<TokenId>(
                              rng.uniformInt(1, 1000) * 10000);
            const auto len =
                static_cast<std::size_t>(rng.uniformInt(1, 64));
            const kv::SeqId id = next_id++;
            if (mgr.allocatePrompt(id, chainOf(mgr, tokenRange(base, len)))
                    .has_value()) {
                live.push_back(id);
            }
            mgr.checkInvariants();
        } else if (action < 0.75 && !live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.appendToken(live[idx], rng.next(), 0);
        } else if (!live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.release(live[idx]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
        checkEachLive(mgr, live);
    }
    for (kv::SeqId id : live)
        mgr.release(id);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
    expectResetZeroesCounters(mgr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerHostFuzz,
                         ::testing::Values(1, 2, 3, 7, 42, 2026));

BlockManagerConfig
tierCfg(std::int64_t blocks, std::int64_t dram_blocks,
        std::int64_t nvme_blocks = 0, int block_size = 16)
{
    BlockManagerConfig c = cfg(blocks, block_size, true, dram_blocks);
    c.nvmeCacheBlocks = nvme_blocks;
    return c;
}

// Regression (tier residency): an Exclusive-mode restore must reclaim
// the tier entry. The pre-fix restore path left the DRAM copy behind
// with untouched recency — a stale duplicate wasting tier capacity.
TEST(BlockManagerTiers, ExclusiveRestoreReclaimsTierEntry)
{
    BlockManager mgr(tierCfg(4, 4)); // Exclusive is the default
    const auto shared = tokenRange(0, 32); // 2 full blocks
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, shared)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, shared)), 2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 2);
    EXPECT_EQ(mgr.freeBlocks(), 4);

    auto alloc = mgr.allocatePrompt(2, chainOf(mgr, shared));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 32);
    EXPECT_EQ(alloc->dramRestoredTokens, 32);
    EXPECT_EQ(alloc->nvmeRestoredTokens, 0);
    // Exclusive: both tier entries were consumed by the restore.
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    EXPECT_EQ(mgr.stats().dram.restoredTokens, 32);
    mgr.checkInvariants();
}

// Regression (tier recency): an Inclusive-mode restore keeps the tier
// copy but must refresh its recency, so a restored-and-reused entry
// outlives colder ones. Pre-fix, the untouched entry stayed oldest and
// was evicted first despite being the hottest.
TEST(BlockManagerTiers, InclusiveRestoreRefreshesRecency)
{
    BlockManagerConfig c = tierCfg(8, 2);
    c.dramMode = kv::TierMode::Inclusive;
    BlockManager mgr(c);
    const auto a = tokenRange(0, 16);
    const auto b = tokenRange(1000, 16);
    const auto d = tokenRange(2000, 16);

    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, a)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, a)), 1); // DRAM: {a}
    ASSERT_TRUE(mgr.allocatePrompt(2, chainOf(mgr, b)).has_value());
    mgr.release(2);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, b)), 1); // DRAM: {a, b}, a older

    // Restoring a refreshes its recency (Inclusive keeps the copy).
    auto ra = mgr.allocatePrompt(3, chainOf(mgr, a));
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->dramRestoredTokens, 16);
    EXPECT_EQ(mgr.hostCachedBlocks(), 2);
    mgr.release(3);

    // A third parked chain hits DRAM capacity: the victim must be b
    // (now the coldest), not the just-restored a.
    ASSERT_TRUE(mgr.allocatePrompt(4, chainOf(mgr, d)).has_value());
    mgr.release(4);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, d)), 1);
    EXPECT_EQ(mgr.stats().dram.evictedBlocks, 1);

    auto rb = mgr.allocatePrompt(5, chainOf(mgr, b));
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->restoredTokens, 0); // b fell out of the hierarchy
    EXPECT_EQ(rb->freshBlocks, 1);
    mgr.checkInvariants();
}

// Regression (honest preload contract): -1 is reserved for a prefix
// that can never fit; a preload that stops early returns the count of
// blocks actually placed.
TEST(BlockManager, PreloadPrefixMinusOneOnlyWhenImpossible)
{
    BlockManager mgr(cfg(4));
    // 5 full blocks can never fit a 4-block pool.
    EXPECT_EQ(mgr.preloadPrefix(chainOf(mgr, tokenRange(0, 80))), -1);
    EXPECT_EQ(mgr.evictableBlocks(), 0);
    // 4 full blocks + a partial tail fit exactly (the partial block is
    // not preloaded).
    EXPECT_EQ(mgr.preloadPrefix(chainOf(mgr, tokenRange(0, 72))), 4);
    mgr.checkInvariants();
}

// Regression (preload self-eviction): filling the pool mid-preload
// must stop with a contiguous resident head, not evict the blocks the
// loop itself just placed. Pre-fix, the 4-block preload below
// "populated" all 4 by cannibalizing its own head, leaving only the
// tail resident — which no prefix probe can ever reach.
TEST(BlockManager, PreloadPrefixStopsAtPinnedPool)
{
    BlockManager mgr(cfg(4));
    // Pin half the pool with a live sequence.
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(9000, 32))).has_value());
    EXPECT_EQ(mgr.preloadPrefix(chainOf(mgr, tokenRange(0, 64))), 2);
    // Nothing was evicted to make room: the loop stopped instead of
    // un-placing its own blocks, so the resident run is the *head*.
    EXPECT_EQ(mgr.stats().evictions, 0);
    EXPECT_EQ(mgr.usedBlocks(), 2);
    auto head = mgr.allocatePrompt(2, chainOf(mgr, tokenRange(0, 32)));
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->cachedTokens, 32);
    EXPECT_EQ(head->freshBlocks, 0);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, DramVictimSinksToNvme)
{
    BlockManager mgr(tierCfg(4, 1, 4));
    const auto a = tokenRange(0, 16);
    const auto b = tokenRange(1000, 16);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, a)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, a)), 1); // DRAM: {a}
    ASSERT_TRUE(mgr.allocatePrompt(2, chainOf(mgr, b)).has_value());
    mgr.release(2);
    // a sinks: DRAM {b}, NVMe {a}
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, b)), 1);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 1);
    EXPECT_EQ(mgr.stats().dram.evictedBlocks, 1);
    EXPECT_EQ(mgr.stats().nvme.demotedBlocks, 1);

    auto ra = mgr.allocatePrompt(3, chainOf(mgr, a));
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->nvmeRestoredTokens, 16);
    EXPECT_EQ(ra->dramRestoredTokens, 0);
    auto rb = mgr.allocatePrompt(4, chainOf(mgr, b));
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->dramRestoredTokens, 16);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, NvmeOnlyTierTakesHbmEvictions)
{
    BlockManager mgr(tierCfg(2, 0, 8));
    const auto shared = tokenRange(0, 32);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, shared)).has_value());
    mgr.release(1);
    // Different content evicts both shared blocks straight into NVMe.
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(9000, 32))).has_value());
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 2);
    mgr.release(2);

    auto alloc = mgr.allocatePrompt(3, chainOf(mgr, shared));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->nvmeRestoredTokens, 32);
    EXPECT_EQ(alloc->dramRestoredTokens, 0);
    mgr.checkInvariants();
}

// A block resident in both tiers restores from DRAM (the cheaper
// transfer): the probe order is GPU, then DRAM, then NVMe.
TEST(BlockManagerTiers, DualResidencyRestoresFromDram)
{
    BlockManagerConfig c = tierCfg(4, 1, 4);
    c.nvmeMode = kv::TierMode::Inclusive;
    BlockManager mgr(c);
    const auto a = tokenRange(0, 16);
    const auto b = tokenRange(1000, 16);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, a)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, a)), 1); // DRAM {a}
    ASSERT_TRUE(mgr.allocatePrompt(2, chainOf(mgr, b)).has_value());
    mgr.release(2);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, b)), 1); // DRAM {b}, NVMe {a}

    // Restore a from NVMe; Inclusive keeps the NVMe copy.
    auto ra = mgr.allocatePrompt(3, chainOf(mgr, a));
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->nvmeRestoredTokens, 16);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 1);
    mgr.release(3);

    // Re-parking a puts it back in DRAM: now dual-resident.
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, a)), 1);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 2); // b sank, a still there

    auto again = mgr.allocatePrompt(4, chainOf(mgr, a));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dramRestoredTokens, 16);
    EXPECT_EQ(again->nvmeRestoredTokens, 0);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, ZeroAdmitProbRejectsEveryVictim)
{
    BlockManagerConfig c = tierCfg(2, 4);
    c.dramAdmitProb = 0.0;
    BlockManager mgr(c);
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 32))).has_value());
    mgr.release(1);
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(9000, 32))).has_value());
    EXPECT_EQ(mgr.stats().evictions, 2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    EXPECT_EQ(mgr.stats().dram.rejectedBlocks, 2);
    EXPECT_EQ(mgr.stats().dram.demotedBlocks, 0);
    mgr.checkInvariants();
}

// Probabilistic admission draws from a dedicated seeded stream: two
// managers with the same seed make identical admit/reject decisions.
TEST(BlockManagerTiers, ProbabilisticAdmissionIsSeedDeterministic)
{
    BlockManagerConfig c = tierCfg(2, 8);
    c.dramAdmitProb = 0.5;
    c.seed = 7;
    BlockManager a(c);
    BlockManager b(c);
    for (int i = 0; i < 20; ++i) {
        const auto prompt =
            tokenRange(static_cast<TokenId>(i) * 10000, 32);
        ASSERT_TRUE(a.allocatePrompt(1, chainOf(a, prompt)).has_value());
        a.release(1);
        ASSERT_TRUE(b.allocatePrompt(1, chainOf(b, prompt)).has_value());
        b.release(1);
    }
    EXPECT_EQ(a.hostCachedBlocks(), b.hostCachedBlocks());
    EXPECT_EQ(a.stats().dram.demotedBlocks,
              b.stats().dram.demotedBlocks);
    EXPECT_EQ(a.stats().dram.rejectedBlocks,
              b.stats().dram.rejectedBlocks);
    // The filter actually fired both ways at p = 0.5 over 38 draws.
    EXPECT_GT(a.stats().dram.demotedBlocks, 0);
    EXPECT_GT(a.stats().dram.rejectedBlocks, 0);
    a.checkInvariants();
    b.checkInvariants();
}

TEST(BlockManagerTiers, ParkChainFreesGpuAndPrefetchRestores)
{
    BlockManager mgr(tierCfg(4, 8));
    const auto chain = tokenRange(0, 64); // 4 full blocks
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, chain)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, chain)), 4);
    EXPECT_EQ(mgr.freeBlocks(), 4);
    EXPECT_EQ(mgr.hostCachedBlocks(), 4);
    EXPECT_EQ(mgr.stats().dram.demotedBlocks, 4);

    const kv::PrefetchResult pf = mgr.prefetchChain(chainOf(mgr, chain));
    EXPECT_EQ(pf.blocks, 4);
    EXPECT_EQ(pf.dramTokens, 64);
    EXPECT_EQ(pf.nvmeTokens, 0);
    EXPECT_EQ(mgr.hostCachedBlocks(), 0); // Exclusive reclaim

    // The continuation now hits the GPU cache with no restore charge.
    auto alloc = mgr.allocatePrompt(2, chainOf(mgr, chain));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 64);
    EXPECT_EQ(alloc->restoredTokens, 0);
    EXPECT_EQ(alloc->freshBlocks, 0);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, ParkChainSkipsLiveBlocks)
{
    BlockManager mgr(tierCfg(4, 8));
    const auto chain = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, chain)).has_value());
    // Still referenced: nothing is idle, nothing parks.
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, chain)), 0);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    mgr.checkInvariants();
}

// Parking demotes tail-first so the chain *head* is the youngest tier
// entry: when the tier is too small for the chain, the head survives
// (a truncated tail still restores; a lost head forfeits everything).
TEST(BlockManagerTiers, ParkTailFirstKeepsHeadWhenTierTight)
{
    BlockManager mgr(tierCfg(4, 1));
    const auto chain = tokenRange(0, 32); // h0, h1
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, chain)).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, chain)), 2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1); // h1 displaced by h0
    EXPECT_EQ(mgr.stats().dram.evictedBlocks, 1);

    // Prefetch promotes the head, then stops at the missing block.
    const kv::PrefetchResult pf = mgr.prefetchChain(chainOf(mgr, chain));
    EXPECT_EQ(pf.blocks, 1);
    EXPECT_EQ(pf.dramTokens, 16);

    auto alloc = mgr.allocatePrompt(2, chainOf(mgr, chain));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 16); // the head, GPU-hot
    EXPECT_EQ(alloc->freshBlocks, 1);
    mgr.checkInvariants();
}

// Tiered fuzz (DRAM + NVMe, probabilistic admission, park/prefetch/
// preload/import interleaved): the full walk and the per-allocation
// check on every live sequence run after every operation. Seed parity
// flips the residency modes so both disciplines are fuzzed.
class BlockManagerTierFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlockManagerTierFuzz, InvariantsHoldWithTieredWorkload)
{
    const std::uint64_t seed = GetParam();
    sim::Rng rng(seed, "kv-tier-fuzz", 0);
    BlockManagerConfig c = tierCfg(24, 16, 24, 8);
    c.dramAdmitProb = 0.8;
    c.nvmeAdmitProb = 0.9;
    c.dramMode = seed % 2 == 0 ? kv::TierMode::Exclusive
                               : kv::TierMode::Inclusive;
    c.nvmeMode = seed % 2 == 0 ? kv::TierMode::Inclusive
                               : kv::TierMode::Exclusive;
    c.seed = seed;
    BlockManager mgr(c);

    auto somePrompt = [&rng, &mgr](bool popular) {
        const TokenId base =
            popular
                ? static_cast<TokenId>(rng.uniformInt(0, 3) * 100000)
                : static_cast<TokenId>(rng.uniformInt(1, 1000) * 10000);
        const auto len =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        return chainOf(mgr, tokenRange(base, len));
    };

    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;
    for (int step = 0; step < 3000; ++step) {
        const double action = rng.uniform();
        if (action < 0.35) {
            const kv::SeqId id = next_id++;
            if (mgr.allocatePrompt(id, somePrompt(rng.bernoulli(0.7)))
                    .has_value()) {
                live.push_back(id);
            }
        } else if (action < 0.45) {
            const kv::SeqId id = next_id++;
            if (mgr.importChain(id, somePrompt(rng.bernoulli(0.5)))
                    .has_value()) {
                live.push_back(id);
            }
        } else if (action < 0.6 && !live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.appendToken(live[idx], rng.next(), 0);
        } else if (action < 0.7) {
            mgr.preloadPrefix(somePrompt(rng.bernoulli(0.5)));
        } else if (action < 0.8) {
            mgr.parkChain(somePrompt(true));
        } else if (action < 0.88) {
            mgr.prefetchChain(somePrompt(true));
        } else if (!live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.release(live[idx]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
        mgr.checkInvariants();
        checkEachLive(mgr, live);
    }
    for (kv::SeqId id : live)
        mgr.release(id);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
    // The probabilistic filter exercised both outcomes.
    EXPECT_GT(mgr.stats().dram.demotedBlocks, 0);
    EXPECT_GT(mgr.stats().dram.rejectedBlocks, 0);
    expectResetZeroesCounters(mgr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerTierFuzz,
                         ::testing::Values(1, 2, 3, 7, 42, 2026));

/** Order-sensitive FNV-1a fold of 64-bit words. */
struct Digest
{
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void add(std::int64_t v)
    {
        value = (value ^ static_cast<std::uint64_t>(v)) *
                0x100000001b3ULL;
    }

    void add(const kv::TierStats &t)
    {
        add(t.demotedBlocks);
        add(t.rejectedBlocks);
        add(t.evictedBlocks);
        add(t.restoredTokens);
    }
};

/**
 * Seeded op sequence over a tight two-tier pool: every public
 * mutation, with invariants checked after each op. The digest folds
 * every observable result, so any change to eviction order, tier
 * recency, admission draws or counter accounting changes it.
 */
std::uint64_t
opSequenceDigest(kv::EvictionPolicy policy, kv::TierMode mode,
                 double admit, int ops)
{
    BlockManagerConfig c = cfg(32, 8, true, 16);
    c.nvmeCacheBlocks = 24;
    c.evictionPolicy = policy;
    c.dramMode = mode;
    c.nvmeMode = mode;
    c.dramAdmitProb = admit;
    c.nvmeAdmitProb = admit;
    c.seed = 11;
    BlockManager mgr(c);
    sim::Rng rng(2026, "kv-pin", 0);
    auto somePrompt = [&rng, &mgr] {
        const bool popular = rng.bernoulli(0.7);
        const TokenId base =
            popular
                ? static_cast<TokenId>(rng.uniformInt(0, 5) * 100000)
                : static_cast<TokenId>(rng.uniformInt(1, 1000) * 10000);
        const auto len = static_cast<std::size_t>(rng.uniformInt(1, 72));
        return chainOf(mgr, tokenRange(base, len));
    };
    auto pickLive = [&rng](const std::vector<kv::SeqId> &live) {
        return static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
    };

    Digest d;
    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;
    for (int op = 0; op < ops; ++op) {
        const double action = rng.uniform();
        if (action < 0.3) {
            const kv::SeqId id = next_id++;
            const auto alloc = mgr.allocatePrompt(id, somePrompt());
            d.add(alloc.has_value());
            if (alloc) {
                d.add(alloc->cachedTokens);
                d.add(alloc->restoredTokens);
                d.add(alloc->dramRestoredTokens);
                d.add(alloc->nvmeRestoredTokens);
                d.add(alloc->freshBlocks);
                live.push_back(id);
            }
        } else if (action < 0.5 && !live.empty()) {
            d.add(mgr.appendToken(live[pickLive(live)], rng.next(), 0));
        } else if (action < 0.6) {
            d.add(mgr.preloadPrefix(somePrompt()));
        } else if (action < 0.7) {
            d.add(mgr.parkChain(somePrompt()));
        } else if (action < 0.8) {
            const kv::PrefetchResult pf = mgr.prefetchChain(somePrompt());
            d.add(pf.blocks);
            d.add(pf.dramTokens);
            d.add(pf.nvmeTokens);
        } else if (action < 0.995) {
            if (!live.empty()) {
                const std::size_t idx = pickLive(live);
                mgr.release(live[idx]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            }
        } else {
            mgr.reset();
            live.clear();
        }
        mgr.checkInvariants();
        d.add(mgr.freeBlocks());
        d.add(mgr.evictableBlocks());
        d.add(mgr.hostCachedBlocks());
        d.add(mgr.nvmeCachedBlocks());
    }
    const kv::CacheStats &s = mgr.stats();
    d.add(s.lookupTokens);
    d.add(s.hitTokens);
    d.add(s.restoredTokens);
    d.add(s.evictions);
    d.add(s.allocatedBlocks);
    d.add(s.dram);
    d.add(s.nvme);
    return d.value;
}

// Pins the block manager's observable behaviour bit for bit across
// eviction policy x tier mode x admission probability: 8 x 2500 ops.
// The digests were recorded on the node-based (std::map /
// std::unordered_map) implementation; any container rewrite must
// reproduce them exactly.
TEST(BlockManagerPin, SeededOpSequenceDigest)
{
    struct Case
    {
        kv::EvictionPolicy policy;
        kv::TierMode mode;
        double admit;
        std::uint64_t digest;
    };
    using kv::EvictionPolicy;
    using kv::TierMode;
    const Case cases[] = {
        {EvictionPolicy::Lru, TierMode::Exclusive, 1.0,
         14575499514367785973ULL},
        {EvictionPolicy::Lru, TierMode::Exclusive, 0.5,
         12291876218351380461ULL},
        {EvictionPolicy::Lru, TierMode::Inclusive, 1.0,
         11689820645824544868ULL},
        {EvictionPolicy::Lru, TierMode::Inclusive, 0.5,
         7623616834192113653ULL},
        {EvictionPolicy::Fifo, TierMode::Exclusive, 1.0,
         14590014575477735969ULL},
        {EvictionPolicy::Fifo, TierMode::Exclusive, 0.5,
         6540185309445681392ULL},
        {EvictionPolicy::Fifo, TierMode::Inclusive, 1.0,
         8600421438795142401ULL},
        {EvictionPolicy::Fifo, TierMode::Inclusive, 0.5,
         13847650611373869091ULL},
    };
    for (const Case &k : cases) {
        SCOPED_TRACE(testing::Message()
                     << "policy=" << static_cast<int>(k.policy)
                     << " mode=" << static_cast<int>(k.mode)
                     << " admit=" << k.admit);
        EXPECT_EQ(opSequenceDigest(k.policy, k.mode, k.admit, 2500),
                  k.digest);
    }
}

// reset() leaves no counter behind: a pool that held sequences, cached
// and parked blocks and tier entries counts nothing afterwards, and
// the next sequence is checked against zeroed counters.
TEST(BlockManager, ResetZeroesEveryCounter)
{
    BlockManager mgr(tierCfg(16, 4, 4));
    // Two sequences share 6 full blocks; each has a private partial.
    const auto prompt = chainOf(mgr, tokenRange(0, 100));
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    ASSERT_TRUE(mgr.allocatePrompt(2, prompt).has_value());
    // A third leaves one block parked and one tier entry.
    const auto parked = chainOf(mgr, tokenRange(500, 40));
    ASSERT_TRUE(mgr.allocatePrompt(3, parked).has_value());
    mgr.release(3);
    EXPECT_EQ(mgr.parkChain(chainOf(mgr, tokenRange(500, 16))), 1);
    EXPECT_EQ(mgr.evictableBlocks(), 1);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    const KvTestAccess::Counters before = KvTestAccess::counters(mgr);
    EXPECT_EQ(before.referenced, 8);
    EXPECT_EQ(before.inTable, 7);
    EXPECT_EQ(before.liveSeqs, 2U);

    expectResetZeroesCounters(mgr);
    const auto again = mgr.allocatePrompt(1, prompt);
    ASSERT_TRUE(again.has_value());
    mgr.checkInvariants(again->seq);
    mgr.checkInvariants();
}

// Death tests of the cheap path: each corrupts one block or structure,
// then drives the next operation that touches it, without a full walk
// first. The fixture leaves the head of a 4-block prompt parked on the
// GPU and its tail in DRAM, so allocating the whole prompt hits the
// head and restores the tail: the call that runs the per-allocation
// check.
class RestoreHitFixture
{
  public:
    explicit RestoreHitFixture(
        kv::EvictionPolicy policy = kv::EvictionPolicy::Lru)
        : mgr(config(policy)), full(chainOf(mgr, tokenRange(0, 64))),
          head(chainOf(mgr, tokenRange(0, 32)))
    {
        EXPECT_TRUE(mgr.allocatePrompt(1, full).has_value());
        mgr.release(1);
        EXPECT_EQ(mgr.parkChain(full), 4);
        const auto restored = mgr.allocatePrompt(2, head);
        EXPECT_TRUE(restored.has_value());
        EXPECT_EQ(restored->restoredTokens, 32);
        mgr.release(2);
        mgr.checkInvariants();
        EXPECT_EQ(mgr.evictableBlocks(), 2);
        EXPECT_EQ(mgr.hostCachedBlocks(), 2);
    }

    /** The restore+hit allocation; its check runs on the way out. */
    void allocateFull()
    {
        const auto alloc = mgr.allocatePrompt(3, full);
        ASSERT_TRUE(alloc.has_value());
        EXPECT_EQ(alloc->cachedTokens, 32);
        EXPECT_EQ(alloc->restoredTokens, 32);
    }

    BlockManager mgr;
    kv::TokenChain full;
    kv::TokenChain head;

  private:
    static BlockManagerConfig config(kv::EvictionPolicy policy)
    {
        BlockManagerConfig c = cfg(8, 16, true, 8);
        c.evictionPolicy = policy;
        return c;
    }
};

TEST(BlockManagerCorruption, IntactFixtureAllocates)
{
    RestoreHitFixture f;
    f.allocateFull();
    f.mgr.checkInvariants();
    RestoreHitFixture fifo(kv::EvictionPolicy::Fifo);
    fifo.allocateFull();
    fifo.mgr.checkInvariants();
}

TEST(BlockManagerCorruption, LostFreeListEntryDies)
{
    RestoreHitFixture f;
    KvTestAccess::freeList(f.mgr).pop_back();
    EXPECT_DEATH(f.allocateFull(), "block accounting broken");
}

TEST(BlockManagerCorruption, ReferencedParkedBlockDies)
{
    RestoreHitFixture f;
    KvTestAccess::refCount(f.mgr, KvTestAccess::lruHead(f.mgr)) = 1;
    EXPECT_DEATH(f.allocateFull(), "sequence block [0-9]+ is unreferenced "
                                   "or parked");
}

TEST(BlockManagerCorruption, BrokenLruLinkDies)
{
    RestoreHitFixture f;
    KvTestAccess::lruNext(f.mgr, KvTestAccess::lruHead(f.mgr)) = -1;
    EXPECT_DEATH(f.allocateFull(), "LRU list corrupt at block");
}

TEST(BlockManagerCorruption, OutOfOrderLruKeyDies)
{
    RestoreHitFixture f;
    const kv::BlockId head = KvTestAccess::lruHead(f.mgr);
    KvTestAccess::lruKey(f.mgr, head) += 1000;
    EXPECT_DEATH(f.allocateFull(), "LRU list corrupt at block");
}

TEST(BlockManagerCorruption, StaleFifoHeapKeyDies)
{
    RestoreHitFixture f(kv::EvictionPolicy::Fifo);
    // A parked head block's key no longer matches its heap entry.
    kv::BlockId parked = 0;
    while (KvTestAccess::lruKey(f.mgr, parked) == 0)
        ++parked;
    KvTestAccess::lruKey(f.mgr, parked) += 1000;
    EXPECT_DEATH(f.allocateFull(), "FIFO heap holds a stale key for block");
}

TEST(BlockManagerCorruption, TierOverCapacityDies)
{
    RestoreHitFixture f;
    // DRAM holds the tail's 2 entries; parking the head adds 2 more.
    KvTestAccess::tierCapacity(f.mgr, kv::Tier::Dram) = 1;
    EXPECT_DEATH(f.mgr.parkChain(f.head), "spill overfilled tier 0");
}

TEST(BlockManagerCorruption, OutOfOrderTierNodeDies)
{
    RestoreHitFixture f;
    // DRAM lists the tail oldest first: block 3, then block 2. Restoring
    // block 2 unlinks it behind a neighbour that is now newer.
    const auto hashes = f.full.blockHashes();
    kv::LruSlab &dram = KvTestAccess::tier(f.mgr, kv::Tier::Dram);
    KvTestAccess::key(dram, hashes[3]) =
        KvTestAccess::key(dram, hashes[2]) + 1;
    EXPECT_DEATH(f.allocateFull(), "LruSlab node [0-9]+ corrupt");
}

TEST(BlockManagerCorruption, MisIndexedTierNodeDies)
{
    RestoreHitFixture f;
    // Block 2's hash now leads to block 3's node.
    const auto hashes = f.full.blockHashes();
    kv::FlatIndex &index =
        KvTestAccess::index(KvTestAccess::tier(f.mgr, kv::Tier::Dram));
    const std::int32_t other = index.find(hashes[3]);
    ASSERT_TRUE(index.erase(hashes[2]));
    ASSERT_TRUE(index.insert(hashes[2], other));
    EXPECT_DEATH(f.allocateFull(), "LruSlab node [0-9]+ corrupt");
}

TEST(BlockManagerCorruption, SlabSlotOwnerMismatchDies)
{
    BlockManager mgr(cfg(8));
    const auto a = mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 20)));
    const auto b = mgr.allocatePrompt(2, chainOf(mgr, tokenRange(100, 20)));
    ASSERT_TRUE(a.has_value() && b.has_value());
    // Sequence 1's index entry names sequence 2's slot.
    kv::FlatIndex &index = KvTestAccess::seqIndex(mgr);
    ASSERT_TRUE(index.erase(sim::hashMix(1)));
    ASSERT_TRUE(index.insert(sim::hashMix(1), b->seq.slot));
    EXPECT_DEATH(mgr.checkInvariants(a->seq),
                 "sequence index maps 1 to slot");
    EXPECT_DEATH(mgr.release(a->seq), "sequence index misplaces sequence 1");
}

} // namespace
