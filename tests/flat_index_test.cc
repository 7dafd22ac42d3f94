/**
 * @file
 * Unit tests for the flat containers behind the KV block pool: the
 * open-addressing FlatIndex, the IndexedMinHeap eviction order and the
 * LruSlab spill-tier recency list, plus BlockManager::reset() leaving
 * them empty and reusable.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "kv/block_manager.hh"
#include "kv/flat_index.hh"
#include "sim/rng.hh"

namespace
{

using namespace agentsim;
using kv::FlatIndex;
using kv::IndexedMinHeap;
using kv::LruSlab;

/** The first @p n keys whose home slot in @p index is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(const FlatIndex &index, std::size_t slot, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        if (index.homeSlot(k) == slot)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatIndex, SizedToTwiceTheEntryBound)
{
    // The highest home slot is the slot count minus one.
    EXPECT_EQ(FlatIndex(0).homeSlot(~0ULL), 1u);
    EXPECT_EQ(FlatIndex(4).homeSlot(~0ULL), 7u);
    EXPECT_EQ(FlatIndex(5).homeSlot(~0ULL), 15u);
}

// Three keys share the last home slot, so their probe run wraps past
// the end of the table into slots 0 and 1; a fourth key homed at slot
// 0 is displaced behind them. Deleting the run's head must shift every
// later member back without moving any before its home slot.
TEST(FlatIndex, BackwardShiftDeletionAcrossWrap)
{
    FlatIndex index(4); // 8 slots
    const std::size_t last = index.homeSlot(~0ULL);
    const auto run = keysHomedAt(index, last, 3);
    const std::uint64_t at_zero = keysHomedAt(index, 0, 1).front();
    for (std::size_t i = 0; i < run.size(); ++i)
        ASSERT_TRUE(index.insert(run[i], static_cast<std::int32_t>(i)));
    ASSERT_TRUE(index.insert(at_zero, 10));
    EXPECT_FALSE(index.insert(run[1], 99)); // first writer wins
    EXPECT_EQ(index.find(run[1]), 1);

    // Slot layout before: [run1 run2 at_zero . . . . run0].
    auto layout = [&index] {
        std::vector<std::uint64_t> keys;
        index.forEach(
            [&keys](std::uint64_t k, std::int32_t) { keys.push_back(k); });
        return keys;
    };
    EXPECT_EQ(layout(),
              (std::vector<std::uint64_t>{run[1], run[2], at_zero, run[0]}));

    ASSERT_TRUE(index.erase(run[0]));
    EXPECT_EQ(index.size(), 3u);
    EXPECT_EQ(index.find(run[0]), FlatIndex::kAbsent);
    EXPECT_EQ(index.find(run[1]), 1);
    EXPECT_EQ(index.find(run[2]), 2);
    EXPECT_EQ(index.find(at_zero), 10);
    // After: run1 back at its home (the last slot), run2 in slot 0 and
    // at_zero shifted to slot 1, one past its home.
    EXPECT_EQ(layout(),
              (std::vector<std::uint64_t>{run[2], at_zero, run[1]}));

    ASSERT_TRUE(index.erase(run[2]));
    EXPECT_EQ(layout(), (std::vector<std::uint64_t>{at_zero, run[1]}));
    EXPECT_FALSE(index.erase(run[2]));
    EXPECT_FALSE(index.erase(run[0]));
    EXPECT_EQ(index.find(at_zero), 10);
    EXPECT_EQ(index.find(run[1]), 1);
}

// Random inserts and erases over a crowded key space (many shared home
// slots, runs wrapping the table end) agree with std::map.
TEST(FlatIndex, MatchesReferenceMapUnderChurn)
{
    FlatIndex index(24); // 64 slots
    std::map<std::uint64_t, std::int32_t> ref;
    sim::Rng rng(7, "flat-index", 0);
    for (int step = 0; step < 20000; ++step) {
        // Keys 0..255 over 64 slots: four keys per home slot.
        const auto key =
            static_cast<std::uint64_t>(rng.uniformInt(0, 255));
        if (rng.bernoulli(0.5) && ref.size() < 24) {
            const auto value = static_cast<std::int32_t>(step);
            EXPECT_EQ(index.insert(key, value),
                      ref.emplace(key, value).second);
        } else {
            EXPECT_EQ(index.erase(key), ref.erase(key) == 1);
        }
        ASSERT_EQ(index.size(), ref.size());
    }
    for (std::uint64_t key = 0; key < 256; ++key) {
        auto it = ref.find(key);
        EXPECT_EQ(index.find(key),
                  it == ref.end() ? FlatIndex::kAbsent : it->second);
    }
}

TEST(IndexedMinHeap, EraseFromMiddleThenPopOrder)
{
    IndexedMinHeap heap(10);
    // id i carries key keys[i]: pushed out of key order.
    const std::uint64_t keys[] = {50, 20, 90, 10, 70, 30, 80, 60, 40, 100};
    for (std::int32_t id = 0; id < 10; ++id)
        heap.push(id, keys[id]);
    heap.checkInvariants();
    EXPECT_EQ(heap.top(), 3); // key 10

    // Erase members that are neither the top nor the last leaf.
    heap.erase(5); // key 30
    heap.erase(0); // key 50
    heap.erase(7); // key 60
    heap.checkInvariants();
    EXPECT_FALSE(heap.contains(5));
    EXPECT_TRUE(heap.contains(8));
    EXPECT_EQ(heap.size(), 7u);

    std::vector<std::int32_t> order;
    while (heap.size() > 0) {
        order.push_back(heap.pop());
        heap.checkInvariants();
    }
    // Keys 10 20 40 70 80 90 100.
    EXPECT_EQ(order, (std::vector<std::int32_t>{3, 1, 8, 4, 6, 2, 9}));

    // Pushed in this order the array is the heap [1 10 2 11 12 3 4].
    // Erasing key 11 moves the last leaf (key 4) under key 10, from the
    // other subtree: it must sift up, not down.
    const std::uint64_t layout[] = {1, 10, 2, 11, 12, 3, 4};
    for (std::int32_t id = 0; id < 7; ++id)
        heap.push(id, layout[id]);
    heap.erase(3);
    heap.checkInvariants();
    order.clear();
    while (heap.size() > 0)
        order.push_back(heap.pop());
    EXPECT_EQ(order, (std::vector<std::int32_t>{0, 2, 5, 6, 1, 4}));
}

TEST(LruSlab, TouchMovesEntryToTail)
{
    LruSlab lru(4);
    lru.insert(0xa, 1);
    lru.insert(0xb, 2);
    lru.insert(0xc, 3);
    ASSERT_TRUE(lru.touch(0xa, 4)); // a: oldest -> newest
    EXPECT_FALSE(lru.touch(0xd, 5)); // absent: nothing moves
    lru.checkInvariants();           // keys still increase head to tail

    // Erasing from the middle frees a slot the next insert reuses.
    ASSERT_TRUE(lru.erase(0xc));
    lru.insert(0xd, 6);
    lru.insert(0xe, 7);
    EXPECT_EQ(lru.size(), 4u);
    lru.checkInvariants();
    std::vector<std::uint64_t> order;
    while (lru.size() > 0)
        order.push_back(lru.popOldest());
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0xb, 0xa, 0xd, 0xe}));
    EXPECT_FALSE(lru.contains(0xc));
}

TEST(FlatContainers, ClearLeavesEmptyReusableStructures)
{
    FlatIndex index(8);
    IndexedMinHeap heap(8);
    LruSlab lru(8);
    for (int round = 0; round < 2; ++round) {
        // Fill every structure to its bound, then clear it.
        for (std::int32_t i = 0; i < 8; ++i) {
            const auto h = static_cast<std::uint64_t>(i * 8 + round);
            ASSERT_TRUE(index.insert(h, i));
            heap.push(i, static_cast<std::uint64_t>(100 - i));
            lru.insert(h, static_cast<std::uint64_t>(i + 1));
        }
        EXPECT_EQ(index.size(), 8u);
        EXPECT_EQ(heap.top(), 7);
        EXPECT_EQ(lru.size(), 8u);
        index.clear();
        heap.clear();
        lru.clear();
        EXPECT_EQ(index.size(), 0u);
        EXPECT_EQ(index.find(static_cast<std::uint64_t>(round)),
                  FlatIndex::kAbsent);
        EXPECT_EQ(heap.size(), 0u);
        EXPECT_FALSE(heap.contains(3));
        EXPECT_EQ(lru.size(), 0u);
        EXPECT_FALSE(lru.contains(static_cast<std::uint64_t>(round)));
        heap.checkInvariants();
        lru.checkInvariants();
    }
}

// After reset() the pool behaves exactly like a freshly built one: the
// same ops on both return the same results and leave the same state.
TEST(FlatContainers, BlockManagerResetLeavesReusablePool)
{
    kv::BlockManagerConfig c;
    c.numBlocks = 8;
    c.blockSize = 4;
    c.hostCacheBlocks = 4;
    c.nvmeCacheBlocks = 4;
    auto chainFrom = [&c](kv::TokenId base) {
        std::vector<kv::TokenId> tokens(24); // 6 full blocks
        std::iota(tokens.begin(), tokens.end(), base);
        return kv::TokenChain(c.blockSize, tokens);
    };
    // A, B, A over an 8-block pool: B evicts and demotes most of A,
    // and the second A restores part of it from the tiers.
    auto run = [&chainFrom](kv::BlockManager &mgr) {
        std::vector<kv::PromptAlloc> out;
        kv::SeqId id = 1;
        for (kv::TokenId base : {0, 1000, 0}) {
            const auto alloc = mgr.allocatePrompt(id, chainFrom(base));
            EXPECT_TRUE(alloc.has_value());
            out.push_back(alloc.value_or(kv::PromptAlloc{}));
            mgr.release(id++);
            mgr.checkInvariants();
        }
        return out;
    };

    kv::BlockManager used(c);
    run(used);
    used.parkChain(chainFrom(0));
    ASSERT_GT(used.hostCachedBlocks(), 0);
    used.reset();
    used.checkInvariants();
    EXPECT_EQ(used.freeBlocks(), 8);
    EXPECT_EQ(used.evictableBlocks(), 0);
    EXPECT_EQ(used.hostCachedBlocks(), 0);
    EXPECT_EQ(used.nvmeCachedBlocks(), 0);

    kv::BlockManager fresh(c);
    const auto again = run(used);
    const auto first = run(fresh);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(again[i].cachedTokens, first[i].cachedTokens);
        EXPECT_EQ(again[i].dramRestoredTokens, first[i].dramRestoredTokens);
        EXPECT_EQ(again[i].nvmeRestoredTokens, first[i].nvmeRestoredTokens);
        EXPECT_EQ(again[i].freshBlocks, first[i].freshBlocks);
    }
    EXPECT_GT(first.back().restoredTokens, 0);
    EXPECT_EQ(used.freeBlocks(), fresh.freeBlocks());
    EXPECT_EQ(used.evictableBlocks(), fresh.evictableBlocks());
    EXPECT_EQ(used.hostCachedBlocks(), fresh.hostCachedBlocks());
    EXPECT_EQ(used.nvmeCachedBlocks(), fresh.nvmeCachedBlocks());
}

} // namespace
