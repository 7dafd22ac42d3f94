#include "kv/block_manager.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace agentsim::kv
{

BlockManager::BlockManager(const BlockManagerConfig &config)
    : config_(config)
{
    if (config_.numBlocks <= 0)
        AGENTSIM_FATAL("KV pool needs at least one block");
    if (config_.blockSize <= 0)
        AGENTSIM_FATAL("KV block size must be positive");
    if (config_.hostCacheBlocks < 0)
        AGENTSIM_FATAL("negative host cache size");
    if (config_.nvmeCacheBlocks < 0)
        AGENTSIM_FATAL("negative NVMe cache size");
    if (config_.dramAdmitProb < 0.0 || config_.dramAdmitProb > 1.0)
        AGENTSIM_FATAL("dramAdmitProb outside [0, 1]");
    if (config_.nvmeAdmitProb < 0.0 || config_.nvmeAdmitProb > 1.0)
        AGENTSIM_FATAL("nvmeAdmitProb outside [0, 1]");

    const auto n = static_cast<std::size_t>(config_.numBlocks);
    blocks_.resize(n);
    freeList_.reserve(n);
    // Pop order: ascending ids first (cosmetic determinism).
    for (std::int64_t i = config_.numBlocks - 1; i >= 0; --i)
        freeList_.push_back(static_cast<BlockId>(i));
    cacheTable_ = FlatIndex(n);
    if (!lruList())
        fifoHeap_ = IndexedMinHeap(n);

    tiers_[0].capacity = config_.hostCacheBlocks;
    tiers_[0].admitProb = config_.dramAdmitProb;
    tiers_[0].mode = config_.dramMode;
    tiers_[1].capacity = config_.nvmeCacheBlocks;
    tiers_[1].admitProb = config_.nvmeAdmitProb;
    tiers_[1].mode = config_.nvmeMode;
    for (auto &tier : tiers_)
        tier.entries = LruSlab(static_cast<std::size_t>(tier.capacity));

    // The migration stream exists only when a probabilistic decision
    // can actually occur; deterministic configs never construct (or
    // advance) it, so they stay bit-identical to a build without it.
    const bool probabilistic =
        (tiers_[0].enabled() && tiers_[0].admitProb < 1.0) ||
        (tiers_[1].enabled() && tiers_[1].admitProb < 1.0);
    if (probabilistic)
        tierRng_.emplace(config_.seed, "kv.tier");
}

void
BlockManager::requireBlockSize(const TokenChain &chain) const
{
    AGENTSIM_ASSERT(chain.blockSize() == config_.blockSize,
                    "chain hashed in %d-token blocks, pool uses %d",
                    chain.blockSize(), config_.blockSize);
}

std::int64_t
BlockManager::usedBlocks() const
{
    return config_.numBlocks - availableBlocks();
}

std::size_t
BlockManager::claimSeqSlot(SeqId seq_id)
{
    // Sized by the peak live count (shared blocks let it pass the
    // pool's block count), so the index stays as small as the batch.
    if (seqIndex_.size() == seqIndex_.capacity()) {
        FlatIndex grown(std::max<std::size_t>(2 * seqIndex_.capacity(), 16));
        seqIndex_.forEach([&grown](std::uint64_t key, std::int32_t slot) {
            grown.insert(key, slot);
        });
        seqIndex_ = std::move(grown);
    }
    std::size_t slot = seqs_.size();
    if (freeSeqSlots_.empty()) {
        seqs_.emplace_back();
    } else {
        slot = static_cast<std::size_t>(freeSeqSlots_.back());
        freeSeqSlots_.pop_back();
        AGENTSIM_ASSERT(seqs_[slot].blocks.empty(),
                        "free list holds live sequence slot %zu", slot);
    }
    seqIndex_.insert(sim::hashMix(seq_id), static_cast<std::int32_t>(slot));
    seqs_[slot].id = seq_id;
    ++liveSeqs_;
    return slot;
}

SeqHandle
BlockManager::handle(SeqId seq_id) const
{
    return {seqIndex_.find(sim::hashMix(seq_id)), seq_id};
}

std::optional<PromptAlloc>
BlockManager::allocatePrompt(SeqId seq_id, const TokenChain &prompt)
{
    AGENTSIM_ASSERT(!seqIndex_.contains(sim::hashMix(seq_id)),
                    "allocatePrompt: seq %llu already allocated",
                    static_cast<unsigned long long>(seq_id));
    AGENTSIM_ASSERT(!prompt.empty(), "allocatePrompt with empty prompt");
    requireBlockSize(prompt);

    const int bs = config_.blockSize;
    const std::int64_t n_full = prompt.fullBlocks();
    const std::int64_t n_blocks = blocksNeeded(prompt.size());
    const auto hashes = prompt.blockHashes();

    // Phase 1: probe for the longest contiguous run of reusable full
    // blocks from position zero — GPU-cached (hit) or spill-tier
    // resident (restore; DRAM probed before NVMe so a dual-resident
    // block restores at the cheaper price). No state is mutated.
    std::vector<Probe> &reuse = probes_;
    reuse.clear();
    if (config_.enablePrefixCaching) {
        for (const std::uint64_t h : hashes) {
            if (const BlockId id = cacheTable_.find(h);
                id != FlatIndex::kAbsent) {
                reuse.push_back({id, h, 0});
            } else if (tiers_[0].contains(h)) {
                reuse.push_back({BlockId{-1}, h, 0});
            } else if (tiers_[1].contains(h)) {
                reuse.push_back({BlockId{-1}, h, 1});
            } else {
                break;
            }
        }
    }

    std::int64_t gpu_hits = 0;
    std::int64_t dram_restores = 0;
    std::int64_t nvme_restores = 0;
    for (const auto &p : reuse) {
        if (p.block >= 0)
            ++gpu_hits;
        else if (p.tier == 0)
            ++dram_restores;
        else
            ++nvme_restores;
    }
    const std::int64_t restores = dram_restores + nvme_restores;
    if (config_.enablePrefixCaching) {
        stats_.lookupTokens += n_full * bs;
        stats_.hitTokens += gpu_hits * bs;
        stats_.restoredTokens += restores * bs;
        stats_.dram.restoredTokens += dram_restores * bs;
        stats_.nvme.restoredTokens += nvme_restores * bs;
    }

    // Phase 2: feasibility. GPU-hit blocks that are currently
    // evictable will be re-referenced, so they cannot double as
    // eviction victims. Restores need fresh blocks like misses.
    std::int64_t evictable_hits = 0;
    for (const auto &p : reuse) {
        if (p.block >= 0 &&
            blocks_[static_cast<std::size_t>(p.block)].refCount == 0) {
            ++evictable_hits;
        }
    }
    const std::int64_t fresh_needed = n_blocks - gpu_hits;
    const std::int64_t fresh_available =
        freeBlocks() + evictableBlocks() - evictable_hits;
    if (fresh_needed > fresh_available)
        return std::nullopt;

    // Phase 3: commit. All GPU-hit blocks are re-referenced *first*:
    // a hit block idling on the eviction list must be pinned before
    // any acquireFreshBlock() call below may run the evictor, or the
    // eviction could pick a pending hit as its victim and alias one
    // physical block into two sequence positions.
    const std::size_t slot = claimSeqSlot(seq_id);
    Seq &seq = seqs_[slot];
    seq.chain = prompt;
    seq.blocks.assign(static_cast<std::size_t>(n_blocks), kNil);

    for (std::size_t i = 0; i < reuse.size(); ++i) {
        if (reuse[i].block >= 0) {
            refCachedBlock(reuse[i].block);
            seq.blocks[i] = reuse[i].block;
        }
    }
    for (std::size_t i = 0; i < reuse.size(); ++i) {
        if (reuse[i].block < 0) {
            // Restore from the spill tier: a fresh GPU block receives
            // the transferred contents and is re-published. The tier
            // entry is consumed per the tier's residency mode.
            const BlockId id = acquireSeqBlock();
            seq.blocks[i] = id;
            publishBlock(id, reuse[i].hash);
            noteTierRestore(reuse[i].tier, reuse[i].hash);
        }
    }
    for (std::int64_t b = static_cast<std::int64_t>(reuse.size());
         b < n_blocks; ++b) {
        const BlockId id = acquireSeqBlock();
        seq.blocks[static_cast<std::size_t>(b)] = id;
        // Full blocks become immediately publishable: their KV will be
        // computed by the upcoming prefill.
        if (config_.enablePrefixCaching && b < n_full)
            publishBlock(id, hashes[static_cast<std::size_t>(b)]);
    }

    PromptAlloc result;
    result.seq = {static_cast<std::int32_t>(slot), seq_id};
    result.cachedTokens = gpu_hits * bs;
    result.restoredTokens = restores * bs;
    result.dramRestoredTokens = dram_restores * bs;
    result.nvmeRestoredTokens = nvme_restores * bs;
    result.freshBlocks = fresh_needed;
    // The restore+hit interleaving is the risky path: restores run the
    // evictor while hit blocks are pinned, and a victim aliased into
    // this block table would show here. Check the pool's counters and
    // this sequence's blocks; every mutation above asserted the part
    // of the structure it changed, so nothing else needs a walk.
    if (restores > 0 && gpu_hits > 0)
        checkInvariants(result.seq);
    return result;
}

bool
BlockManager::appendAtBoundary(Seq &seq, std::uint64_t stream,
                               std::int64_t index)
{
    if (seq.chain.tailSize() == 0) {
        // Crossing into a new block.
        if (availableBlocks() == 0)
            return false;
        seq.blocks.push_back(acquireSeqBlock());
    }

    seq.chain.appendStream(stream, index, 1);
    if (seq.chain.tailSize() == 0 && config_.enablePrefixCaching)
        publishBlock(seq.blocks.back(), seq.chain.blockHashes().back());
    return true;
}

std::optional<PromptAlloc>
BlockManager::importChain(SeqId seq_id, const TokenChain &chain)
{
    // An import is a prompt allocation in disguise: the chain hashes
    // are content-derived, so any prefix already resident here (same
    // workflow instructions, shared conversation head) is reused and
    // never crosses the interconnect.
    return allocatePrompt(seq_id, chain);
}

void
BlockManager::release(SeqHandle seq_handle)
{
    Seq &seq = seqs_[liveSlot(seq_handle, "release")];
    for (BlockId id : seq.blocks)
        unrefBlock(id);
    seq.blocks.clear();
    const std::int32_t indexed = seqIndex_.take(sim::hashMix(seq_handle.id));
    AGENTSIM_ASSERT(indexed == seq_handle.slot,
                    "sequence index misplaces sequence %llu",
                    static_cast<unsigned long long>(seq_handle.id));
    freeSeqSlots_.push_back(seq_handle.slot);
    --liveSeqs_;
}

void
BlockManager::reset()
{
    for (auto &b : blocks_)
        b = Block{};
    freeList_.clear();
    for (std::int64_t i = config_.numBlocks - 1; i >= 0; --i)
        freeList_.push_back(static_cast<BlockId>(i));
    cacheTable_.clear();
    lruHead_ = lruTail_ = kNil;
    lruSize_ = 0;
    fifoHeap_.clear();
    seqs_.clear();
    freeSeqSlots_.clear();
    seqIndex_.clear();
    referencedBlocks_ = tableBlocks_ = 0;
    liveSeqs_ = 0;
    for (auto &tier : tiers_)
        tier.entries.clear();
}

std::int64_t
BlockManager::preloadPrefix(const TokenChain &prefix)
{
    AGENTSIM_ASSERT(config_.enablePrefixCaching,
                    "preload requires prefix caching");
    requireBlockSize(prefix);
    if (prefix.fullBlocks() > config_.numBlocks)
        return -1; // can never fit, even in an empty pool

    // Blocks of *this* prefix — every one already resident or placed
    // below — carry this call's guard stamp. The guard keeps them off
    // the victim list so a partial preload is always a contiguous,
    // resident head — without it, acquireFreshBlock() could silently
    // cannibalize the blocks this very loop just paid to transfer.
    ++guardEpoch_;
    std::int64_t populated = 0;
    for (const std::uint64_t h : prefix.blockHashes()) {
        if (const BlockId id = cacheTable_.find(h);
            id != FlatIndex::kAbsent) {
            // Already resident. Shield it like a placed block, and
            // under LRU refresh its recency (a preload is an access).
            Block &block = blocks_[static_cast<std::size_t>(id)];
            if (block.refCount == 0 && lruList()) {
                evictableErase(id);
                parkEvictable(id);
            }
            block.guardEpoch = guardEpoch_;
            continue;
        }
        if (availableBlocks() == 0)
            return populated; // pool full: honest partial preload
        if (nextVictimGuarded()) {
            // The only eviction victim left is part of this prefix:
            // placing one more block would un-place another.
            return populated;
        }
        const BlockId id = acquireFreshBlock();
        publishEvictable(id, h);
        blocks_[static_cast<std::size_t>(id)].guardEpoch = guardEpoch_;
        ++populated;
    }
    return populated;
}

std::int64_t
BlockManager::parkChain(const TokenChain &chain)
{
    requireBlockSize(chain);
    if (!config_.enablePrefixCaching || !spillTiersEnabled())
        return 0;
    const auto hashes = chain.blockHashes();
    std::int64_t parked = 0;
    // Tail first: the restore probe dies at the first missing block,
    // so the chain head must be the *youngest* tier entry — losing the
    // tail truncates, losing the head forfeits the whole chain.
    for (auto it = hashes.rbegin(); it != hashes.rend(); ++it) {
        const BlockId id = cacheTable_.find(*it);
        if (id == FlatIndex::kAbsent)
            continue;
        Block &b = blocks_[static_cast<std::size_t>(id)];
        if (b.refCount > 0)
            continue; // pinned by a live sequence: not idle
        AGENTSIM_ASSERT(b.hash == *it,
                        "cache table maps another hash to block %d", id);
        evictableErase(id);
        cacheTable_.erase(*it);
        --tableBlocks_;
        // Deliberate demotion bypasses the probabilistic filter.
        demoteFromGpu(b.hash, /*forced=*/true);
        freeList_.push_back(id);
        b = Block{};
        ++parked;
    }
    return parked;
}

PrefetchResult
BlockManager::prefetchChain(const TokenChain &chain)
{
    requireBlockSize(chain);
    PrefetchResult out;
    if (!config_.enablePrefixCaching)
        return out;
    const int bs = config_.blockSize;
    ++guardEpoch_; // stamps the blocks promoted by this call
    for (const std::uint64_t h : chain.blockHashes()) {
        if (cacheTable_.contains(h))
            continue; // already on the GPU
        std::size_t tier = kNumSpillTiers;
        if (tiers_[0].contains(h))
            tier = 0;
        else if (tiers_[1].contains(h))
            tier = 1;
        if (tier == kNumSpillTiers)
            break; // chain dead beyond this point
        if (availableBlocks() == 0)
            break; // pool full: promote what we could
        if (nextVictimGuarded())
            break; // would cannibalize a block promoted just now
        const BlockId id = acquireFreshBlock();
        publishEvictable(id, h);
        blocks_[static_cast<std::size_t>(id)].guardEpoch = guardEpoch_;
        noteTierRestore(tier, h);
        ++out.blocks;
        if (tier == 0) {
            out.dramTokens += bs;
            stats_.dram.restoredTokens += bs;
        } else {
            out.nvmeTokens += bs;
            stats_.nvme.restoredTokens += bs;
        }
        stats_.restoredTokens += bs;
    }
    return out;
}

BlockId
BlockManager::acquireFreshBlock()
{
    ++stats_.allocatedBlocks;
    if (!freeList_.empty()) {
        const BlockId id = freeList_.back();
        freeList_.pop_back();
        Block &b = blocks_[static_cast<std::size_t>(id)];
        b = Block{};
        return id;
    }
    // Evict the lowest-key cached block (LRU or FIFO order). The
    // erase proved it published, so its table entry must name it.
    const BlockId id = evictableTop();
    evictableErase(id);
    Block &b = blocks_[static_cast<std::size_t>(id)];
    const BlockId indexed = cacheTable_.take(b.hash);
    AGENTSIM_ASSERT(indexed == id, "cache table lost victim block %d", id);
    --tableBlocks_;
    // The contents demote into the spill hierarchy instead of
    // vanishing (subject to probabilistic admission).
    demoteFromGpu(b.hash, /*forced=*/false);
    ++stats_.evictions;
    b = Block{};
    return id;
}

BlockId
BlockManager::acquireSeqBlock()
{
    const BlockId id = acquireFreshBlock();
    block(id).refCount = 1;
    ++referencedBlocks_;
    return id;
}

bool
BlockManager::nextVictimGuarded() const
{
    return freeList_.empty() &&
           block(evictableTop()).guardEpoch == guardEpoch_;
}

void
BlockManager::refCachedBlock(BlockId id)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    if (b.refCount == 0) {
        evictableErase(id);
        ++referencedBlocks_;
    }
    ++b.refCount;
}

void
BlockManager::publishBlock(BlockId id, std::uint64_t hash)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    b.hash = hash;
    // First writer wins; duplicate content in another live block simply
    // stays private to its sequence.
    b.inTable = cacheTable_.insert(hash, id);
    if (b.inTable) {
        b.publishKey = lruCounter_++;
        ++tableBlocks_;
    }
}

void
BlockManager::publishEvictable(BlockId id, std::uint64_t hash)
{
    publishBlock(id, hash);
    AGENTSIM_ASSERT(blocks_[static_cast<std::size_t>(id)].inTable,
                    "publishEvictable of already-cached hash");
    // Immediately evictable: owned by the cache, not a sequence.
    parkEvictable(id);
}

void
BlockManager::parkEvictable(BlockId id)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    b.lruKey = lruList() ? lruCounter_++ : b.publishKey;
    evictablePush(id);
}

void
BlockManager::evictablePush(BlockId id)
{
    Block &b = block(id);
    AGENTSIM_ASSERT(b.refCount == 0 && b.inTable && b.lruKey != 0,
                    "park of referenced or unpublished block %d", id);
    if (!lruList()) {
        fifoHeap_.push(id, b.lruKey);
        return;
    }
    AGENTSIM_ASSERT(b.lruPrev == kNil && b.lruNext == kNil && lruHead_ != id,
                    "LRU list already holds block %d", id);
    const bool tail_ok = lruTail_ == kNil
                             ? lruHead_ == kNil
                             : block(lruTail_).lruNext == kNil &&
                                   block(lruTail_).lruKey < b.lruKey;
    AGENTSIM_ASSERT(tail_ok, "LRU park out of key order: block %d", id);
    b.lruPrev = lruTail_;
    (lruTail_ == kNil ? lruHead_ : block(lruTail_).lruNext) = id;
    lruTail_ = id;
    ++lruSize_;
}

void
BlockManager::evictableErase(BlockId id)
{
    Block &b = block(id);
    AGENTSIM_ASSERT(b.refCount == 0 && b.inTable,
                    "referenced or unpublished parked block %d", id);
    if (!lruList()) {
        AGENTSIM_ASSERT(fifoHeap_.key(id) == b.lruKey,
                        "FIFO heap holds a stale key for block %d", id);
        fifoHeap_.erase(id);
    } else {
        // Both neighbours point back at the block, in key order.
        const bool prev_ok = b.lruPrev == kNil
                                 ? lruHead_ == id
                                 : block(b.lruPrev).lruNext == id &&
                                       block(b.lruPrev).lruKey < b.lruKey;
        const bool next_ok = b.lruNext == kNil
                                 ? lruTail_ == id
                                 : block(b.lruNext).lruPrev == id &&
                                       b.lruKey < block(b.lruNext).lruKey;
        AGENTSIM_ASSERT(prev_ok && next_ok, "LRU list corrupt at block %d",
                        id);
        (b.lruPrev == kNil ? lruHead_ : block(b.lruPrev).lruNext) = b.lruNext;
        (b.lruNext == kNil ? lruTail_ : block(b.lruNext).lruPrev) = b.lruPrev;
        b.lruPrev = b.lruNext = kNil;
        --lruSize_;
    }
    b.lruKey = 0;
}

BlockId
BlockManager::evictableTop() const
{
    if (!lruList())
        return fifoHeap_.top();
    AGENTSIM_ASSERT(lruHead_ != kNil, "no evictable block");
    return lruHead_;
}

void
BlockManager::unrefBlock(BlockId id)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    AGENTSIM_ASSERT(b.refCount > 0, "unref of unreferenced block");
    if (--b.refCount > 0)
        return;
    --referencedBlocks_;
    if (b.inTable) {
        // Park on the eviction list; the contents stay reusable until
        // evicted. The ordering key realizes the configured policy.
        parkEvictable(id);
    } else {
        freeList_.push_back(id);
    }
}

TierStats &
BlockManager::tierStats(std::size_t index)
{
    return index == 0 ? stats_.dram : stats_.nvme;
}

bool
BlockManager::tierAdmits(std::size_t index)
{
    const double p = tiers_[index].admitProb;
    // Degenerate probabilities never draw, so configs without real
    // randomness leave the stream untouched (and unconstructed).
    if (p >= 1.0)
        return true;
    if (p <= 0.0)
        return false;
    AGENTSIM_ASSERT(tierRng_.has_value(),
                    "probabilistic tier without migration stream");
    return tierRng_->bernoulli(p);
}

void
BlockManager::demoteFromGpu(std::uint64_t hash, bool forced)
{
    for (std::size_t i = 0; i < kNumSpillTiers; ++i) {
        if (!tiers_[i].enabled())
            continue;
        if (forced || tierAdmits(i))
            spillToTier(i, hash);
        else
            ++tierStats(i).rejectedBlocks;
        return;
    }
}

void
BlockManager::spillToTier(std::size_t index, std::uint64_t hash)
{
    SpillTier &tier = tiers_[index];
    AGENTSIM_ASSERT(tier.enabled(), "spill into disabled tier");
    if (tier.entries.touch(hash, lruCounter_)) {
        // Already resident: recency refreshed.
        ++lruCounter_;
        return;
    }
    if (static_cast<std::int64_t>(tier.entries.size()) >=
        tier.capacity) {
        // Capacity victim sinks into the next enabled tier (through
        // its own admission filter) or falls out of the hierarchy.
        const std::uint64_t victim = tier.entries.popOldest();
        ++tierStats(index).evictedBlocks;
        for (std::size_t next = index + 1; next < kNumSpillTiers;
             ++next) {
            if (!tiers_[next].enabled())
                continue;
            if (tierAdmits(next))
                spillToTier(next, victim);
            else
                ++tierStats(next).rejectedBlocks;
            break;
        }
    }
    tier.entries.insert(hash, lruCounter_++);
    const auto size = static_cast<std::int64_t>(tier.entries.size());
    AGENTSIM_ASSERT(size <= tier.capacity, "spill overfilled tier %zu",
                    static_cast<std::size_t>(index));
    ++tierStats(index).demotedBlocks;
}

void
BlockManager::noteTierRestore(std::size_t index, std::uint64_t hash)
{
    // Either call finds nothing when demotions earlier in this commit
    // pushed the entry out.
    SpillTier &tier = tiers_[index];
    if (tier.mode == TierMode::Exclusive) {
        // Reclaim: the contents now live on the GPU; keeping the tier
        // copy would waste capacity on a duplicate whose recency
        // never updates (the pre-tier design's exact bug).
        tier.entries.erase(hash);
    } else if (tier.entries.touch(hash, lruCounter_)) {
        // Inclusive: keep the copy, but mark it as just-used so cold
        // entries are evicted before it.
        ++lruCounter_;
    }
}

void
BlockManager::checkInvariants(SeqHandle seq) const
{
    // Every accounting identity of the full walk, from counters.
    const std::int64_t free_count = freeBlocks();
    const std::int64_t evict_count = evictableBlocks();
    AGENTSIM_ASSERT(referencedBlocks_ + free_count + evict_count ==
                        config_.numBlocks,
                    "block accounting broken: %lld + %lld + %lld != %lld",
                    static_cast<long long>(referencedBlocks_),
                    static_cast<long long>(free_count),
                    static_cast<long long>(evict_count),
                    static_cast<long long>(config_.numBlocks));
    AGENTSIM_ASSERT(static_cast<std::int64_t>(cacheTable_.size()) ==
                        tableBlocks_,
                    "cache table holds %zu entries, %lld blocks in it",
                    cacheTable_.size(), static_cast<long long>(tableBlocks_));
    AGENTSIM_ASSERT(liveSeqs_ == seqIndex_.size() &&
                        liveSeqs_ + freeSeqSlots_.size() == seqs_.size(),
                    "sequence slab: %zu live + %zu free of %zu slots",
                    liveSeqs_, freeSeqSlots_.size(), seqs_.size());
    for (std::size_t i = 0; i < kNumSpillTiers; ++i) {
        AGENTSIM_ASSERT(static_cast<std::int64_t>(
                            tiers_[i].entries.size()) <= tiers_[i].capacity,
                        "tier %zu over capacity", i);
    }

    // The sequence: owned through the index, every block pinned and
    // off the evictable set, every published block the table's entry
    // for its hash.
    const std::size_t slot = liveSlot(seq, "checkInvariants");
    AGENTSIM_ASSERT(static_cast<std::int64_t>(seqs_[slot].blocks.size()) ==
                        blocksNeeded(seqs_[slot].chain.size()),
                    "sequence %llu holds %zu blocks for %lld tokens",
                    static_cast<unsigned long long>(seq.id),
                    seqs_[slot].blocks.size(),
                    static_cast<long long>(seqs_[slot].chain.size()));
    AGENTSIM_ASSERT(seqIndex_.find(sim::hashMix(seq.id)) == seq.slot,
                    "sequence index maps %llu to slot %d, not its slot %d",
                    static_cast<unsigned long long>(seq.id),
                    seqIndex_.find(sim::hashMix(seq.id)), seq.slot);
    for (const BlockId id : seqs_[slot].blocks) {
        AGENTSIM_ASSERT(id >= 0 && id < config_.numBlocks,
                        "sequence holds block %d outside the pool", id);
        const Block &b = block(id);
        AGENTSIM_ASSERT(b.refCount > 0 && b.lruKey == 0 &&
                            b.lruPrev == kNil && b.lruNext == kNil &&
                            (lruList() || !fifoHeap_.contains(id)),
                        "sequence block %d is unreferenced or parked", id);
        AGENTSIM_ASSERT(!b.inTable || cacheTable_.find(b.hash) == id,
                        "sequence block %d is not the table entry for its "
                        "hash",
                        id);
    }
}

void
BlockManager::checkInvariants() const
{
    std::int64_t referenced = 0;
    std::int64_t in_table = 0;
    // Parked blocks carry an lruKey. Under LRU each next link points
    // back under a higher key, and only the head lacks a prev and only
    // the tail a next: one list through every parked block, in order.
    std::int64_t parked = 0;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const Block &b = blocks_[i];
        const auto id = static_cast<BlockId>(i);
        if (b.refCount > 0)
            ++referenced;
        if (b.inTable)
            ++in_table;
        if (b.lruKey == 0) {
            AGENTSIM_ASSERT(b.lruPrev == kNil && b.lruNext == kNil,
                            "unparked block %d still linked", id);
            continue;
        }
        ++parked;
        AGENTSIM_ASSERT(b.refCount == 0 && b.inTable,
                        "parked block %d is referenced or unpublished", id);
        AGENTSIM_ASSERT(!lruList() ||
                            ((b.lruPrev == kNil) == (id == lruHead_) &&
                             (b.lruNext == kNil) == (id == lruTail_) &&
                             (b.lruNext == kNil ||
                              (block(b.lruNext).lruPrev == id &&
                               b.lruKey < block(b.lruNext).lruKey))),
                        "LRU list corrupt at block %d", id);
    }
    AGENTSIM_ASSERT(referenced == referencedBlocks_ && in_table == tableBlocks_,
                    "counters: %lld referenced, %lld in table; recount "
                    "%lld, %lld",
                    static_cast<long long>(referencedBlocks_),
                    static_cast<long long>(tableBlocks_),
                    static_cast<long long>(referenced),
                    static_cast<long long>(in_table));
    const auto free_count = static_cast<std::int64_t>(freeList_.size());
    const auto evict_count = evictableBlocks();
    AGENTSIM_ASSERT(parked == evict_count,
                    "%lld blocks carry an lruKey, %lld are evictable",
                    static_cast<long long>(parked),
                    static_cast<long long>(evict_count));
    AGENTSIM_ASSERT(!lruList() || (parked > 0
                                       ? lruHead_ != kNil &&
                                             block(lruHead_).lruKey != 0
                                       : lruHead_ == kNil && lruTail_ == kNil),
                    "LRU list head %d with %lld parked blocks", lruHead_,
                    static_cast<long long>(parked));
    AGENTSIM_ASSERT(referenced + free_count + evict_count ==
                        config_.numBlocks,
                    "block accounting broken: %lld + %lld + %lld != %lld",
                    static_cast<long long>(referenced),
                    static_cast<long long>(free_count),
                    static_cast<long long>(evict_count),
                    static_cast<long long>(config_.numBlocks));
    // Tier checks come first: as the last call they become a tail
    // call, which gprof charges to this function's caller.
    for (std::size_t i = 0; i < kNumSpillTiers; ++i) {
        const SpillTier &tier = tiers_[i];
        AGENTSIM_ASSERT(static_cast<std::int64_t>(tier.entries.size()) <=
                            std::max<std::int64_t>(tier.capacity, 0),
                        "tier %zu over capacity", i);
        tier.entries.checkInvariants();
    }
    if (!lruList()) {
        fifoHeap_.checkInvariants();
        fifoHeap_.forEach([this](BlockId id, std::uint64_t key) {
            AGENTSIM_ASSERT(block(id).lruKey == key,
                            "FIFO heap holds block %d under a stale key", id);
        });
    }
    // A released slab slot has an empty block table.
    const auto live_slots = static_cast<std::size_t>(std::count_if(
        seqs_.begin(), seqs_.end(),
        [](const Seq &s) { return !s.blocks.empty(); }));
    AGENTSIM_ASSERT(live_slots == liveSeqs_,
                    "counter: %zu live sequences; recount %zu", liveSeqs_,
                    live_slots);
    AGENTSIM_ASSERT(live_slots == seqIndex_.size() &&
                        live_slots + freeSeqSlots_.size() == seqs_.size(),
                    "sequence slab: %zu live + %zu free of %zu slots",
                    live_slots, freeSeqSlots_.size(), seqs_.size());
    // Each indexed id names a live slot that it owns, so handle()
    // and a handle taken at allocation agree; its block table covers
    // its tokens exactly, so liveSeqBlocks() is their block count.
    seqIndex_.forEach([this](std::uint64_t key, std::int32_t slot) {
        const auto i = static_cast<std::size_t>(slot);
        AGENTSIM_ASSERT(i < seqs_.size() && !seqs_[i].blocks.empty() &&
                            sim::hashMix(seqs_[i].id) == key,
                        "sequence index maps to slot %d it does not own",
                        slot);
        AGENTSIM_ASSERT(static_cast<std::int64_t>(seqs_[i].blocks.size()) ==
                            blocksNeeded(seqs_[i].chain.size()),
                        "slot %d holds %zu blocks for %lld tokens", slot,
                        seqs_[i].blocks.size(),
                        static_cast<long long>(seqs_[i].chain.size()));
    });
    AGENTSIM_ASSERT(static_cast<std::int64_t>(cacheTable_.size()) ==
                        in_table,
                    "cache table holds %zu entries, %lld blocks in it",
                    cacheTable_.size(), static_cast<long long>(in_table));
    cacheTable_.forEach([this](std::uint64_t hash, BlockId id) {
        const Block &b = blocks_[static_cast<std::size_t>(id)];
        // find() also proves the entry is reachable from its home slot.
        AGENTSIM_ASSERT(b.inTable && b.hash == hash &&
                            cacheTable_.find(hash) == id,
                        "corrupt cache-table entry");
    });
}

} // namespace agentsim::kv
