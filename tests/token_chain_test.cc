/**
 * @file
 * Tests for kv::TokenChain, the append-only prompt representation:
 * its block hashes depend only on token content (never on how the
 * chain was assembled), copies fork independently, and the block
 * manager, migration and checkpoint paths that consume chains see
 * exactly what a token-by-token hash of the same prompt would give.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "agents/workflows.hh"
#include "kv/block_manager.hh"
#include "kv/token_chain.hh"
#include "serving/checkpoint.hh"
#include "sim/rng.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using kv::BlockManager;
using kv::BlockManagerConfig;
using kv::TokenChain;
using kv::TokenId;

/**
 * Reference block hashes: the original token-by-token definition,
 * spelled out independently of TokenChain.
 */
std::vector<std::uint64_t>
referenceHashes(std::span<const TokenId> tokens, int block_size)
{
    std::vector<std::uint64_t> out;
    std::uint64_t prev = 0;
    const auto bs = static_cast<std::size_t>(block_size);
    for (std::size_t b = 0; b + bs <= tokens.size(); b += bs) {
        std::uint64_t h = sim::hashMix(prev ^ 0x9d5a3f7c1e284b69ULL);
        for (std::size_t i = b; i < b + bs; ++i)
            h = sim::hashCombine(h, tokens[i]);
        out.push_back(h);
        prev = h;
    }
    return out;
}

std::vector<TokenId>
tokenRange(TokenId start, std::size_t n)
{
    std::vector<TokenId> v(n);
    std::iota(v.begin(), v.end(), start);
    return v;
}

/** Check @p chain against a from-scratch hash of @p tokens. */
void
expectMatches(const TokenChain &chain, std::span<const TokenId> tokens,
              int block_size)
{
    const auto want = referenceHashes(tokens, block_size);
    const auto got = chain.blockHashes();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "block " << i;
    EXPECT_EQ(chain.size(), static_cast<std::int64_t>(tokens.size()));
    const std::size_t tail_len =
        tokens.size() % static_cast<std::size_t>(block_size);
    ASSERT_EQ(chain.tail().size(), tail_len);
    for (std::size_t i = 0; i < tail_len; ++i)
        EXPECT_EQ(chain.tail()[i], tokens[tokens.size() - tail_len + i]);
}

class ChainSplits : public ::testing::TestWithParam<int>
{
};

TEST_P(ChainSplits, RandomAppendSplitsMatchScratchHash)
{
    const int bs = GetParam();
    sim::Rng rng(7, "chain.splits", static_cast<std::uint64_t>(bs));
    // Lengths ending mid-block and exactly on block boundaries.
    for (const std::size_t len :
         {std::size_t{1}, std::size_t(bs - 1), std::size_t(bs),
          std::size_t(3 * bs), std::size_t(3 * bs + 1),
          std::size_t(10 * bs - 1), std::size_t(37 * bs)}) {
        const auto tokens =
            workload::makeTokens(workload::streamId(3, "chain"),
                                 static_cast<std::int64_t>(len));
        for (int trial = 0; trial < 20; ++trial) {
            TokenChain chain(bs);
            std::size_t pos = 0;
            while (pos < len) {
                const auto step = static_cast<std::size_t>(
                    rng.uniformInt(0, 2 * bs + 1));
                const std::size_t n = std::min(step, len - pos);
                chain.append(std::span(tokens).subspan(pos, n));
                pos += n;
            }
            expectMatches(chain, tokens, bs);
            EXPECT_EQ(chain, TokenChain(bs, tokens));
        }
        TokenChain one_by_one(bs);
        for (const TokenId t : tokens)
            one_by_one.push_back(t);
        expectMatches(one_by_one, tokens, bs);
        EXPECT_EQ(one_by_one, TokenChain(bs, tokens));
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, ChainSplits,
                         ::testing::Values(4, 16));

TEST(TokenChain, EmptyAndPlaceholder)
{
    const TokenChain chain(16);
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(chain.fullBlocks(), 0);
    EXPECT_EQ(chain.blockSize(), 16);
    EXPECT_EQ(TokenChain().blockSize(), 0);
}

TEST(TokenChain, CopyExtendsIndependently)
{
    const auto head = tokenRange(0, 37);
    const auto left = tokenRange(1000, 21);
    const auto right = tokenRange(2000, 40);

    TokenChain source(4, head);
    TokenChain fork = source;
    fork.append(right);
    source.append(left);

    std::vector<TokenId> want_source = head;
    want_source.insert(want_source.end(), left.begin(), left.end());
    std::vector<TokenId> want_fork = head;
    want_fork.insert(want_fork.end(), right.begin(), right.end());
    expectMatches(source, want_source, 4);
    expectMatches(fork, want_fork, 4);
    // The shared head's blocks are identical in both.
    for (std::size_t b = 0; b < head.size() / 4; ++b)
        EXPECT_EQ(source.blockHashes()[b], fork.blockHashes()[b]);
}

BlockManagerConfig
poolConfig(int block_size)
{
    BlockManagerConfig c;
    c.numBlocks = 100000; // never evicts: hits follow the reference
    c.blockSize = block_size;
    return c;
}

void
expectSameAlloc(const kv::PromptAlloc &a, const kv::PromptAlloc &b)
{
    EXPECT_EQ(a.cachedTokens, b.cachedTokens);
    EXPECT_EQ(a.restoredTokens, b.restoredTokens);
    EXPECT_EQ(a.dramRestoredTokens, b.dramRestoredTokens);
    EXPECT_EQ(a.nvmeRestoredTokens, b.nvmeRestoredTokens);
    EXPECT_EQ(a.freshBlocks, b.freshBlocks);
}

TEST(TokenChain, AllocatePromptMatchesReferenceHash)
{
    // Agent-like prompts: a shared head plus a growing history,
    // assembled segment by segment in one pool and token by token in
    // the other. Both must see the hits a reference hash predicts.
    for (const int bs : {4, 16}) {
        BlockManager segments(poolConfig(bs));
        BlockManager tokens(poolConfig(bs));
        std::vector<std::vector<std::uint64_t>> published;
        sim::Rng rng(11, "chain.alloc", static_cast<std::uint64_t>(bs));
        const auto head = workload::makeTokens(5, 3 * bs + 2);
        for (kv::SeqId id = 1; id <= 40; ++id) {
            std::vector<TokenId> prompt = head;
            TokenChain by_segment(bs, head);
            const auto branch = static_cast<std::uint64_t>(id % 5);
            for (int seg = 0; seg < static_cast<int>(id % 7); ++seg) {
                const auto piece = workload::makeTokens(
                    workload::substream(branch,
                                        static_cast<std::uint64_t>(seg)),
                    rng.uniformInt(1, 3 * bs));
                prompt.insert(prompt.end(), piece.begin(), piece.end());
                by_segment.append(piece);
            }
            TokenChain by_token(bs);
            for (const TokenId t : prompt)
                by_token.push_back(t);

            // Reference: the longest run of leading blocks whose
            // reference hash some earlier prompt already published.
            const auto ref = referenceHashes(prompt, bs);
            std::size_t expect_hit = 0;
            for (const auto &seen : published) {
                std::size_t n = 0;
                while (n < ref.size() && n < seen.size() &&
                       ref[n] == seen[n])
                    ++n;
                expect_hit = std::max(expect_hit, n);
            }
            published.push_back(ref);

            const auto a = segments.allocatePrompt(id, by_segment);
            const auto b = tokens.allocatePrompt(id, by_token);
            ASSERT_TRUE(a.has_value() && b.has_value());
            expectSameAlloc(*a, *b);
            EXPECT_EQ(a->cachedTokens,
                      static_cast<std::int64_t>(expect_hit) * bs);
            if (id % 3 == 0) {
                segments.release(id);
                tokens.release(id);
            }
        }
        const kv::CacheStats &sa = segments.stats();
        const kv::CacheStats &sb = tokens.stats();
        EXPECT_EQ(sa.lookupTokens, sb.lookupTokens);
        EXPECT_EQ(sa.hitTokens, sb.hitTokens);
        EXPECT_EQ(sa.allocatedBlocks, sb.allocatedBlocks);
        EXPECT_GT(sa.hitTokens, 0);
        segments.checkInvariants();
        tokens.checkInvariants();
    }
}

TEST(TokenChainDeathTest, BlockSizeMismatchPanics)
{
    BlockManager mgr(poolConfig(16));
    const TokenChain wrong(8, tokenRange(0, 64));
    EXPECT_DEATH((void)mgr.allocatePrompt(1, wrong), "block");
    EXPECT_DEATH((void)mgr.preloadPrefix(wrong), "block");
    EXPECT_DEATH((void)mgr.prefetchChain(wrong), "block");
}

TEST(TokenChain, MigrationRoundTrip)
{
    const int bs = 16;
    BlockManager source(poolConfig(bs));
    BlockManager target(poolConfig(bs));
    const auto prompt = tokenRange(0, 70);
    ASSERT_TRUE(source.allocatePrompt(1, TokenChain(bs, prompt)));
    // Decode 30 tokens: the exported chain is prompt + output.
    std::vector<TokenId> full = prompt;
    for (TokenId t = 5000; t < 5030; ++t) {
        ASSERT_TRUE(source.appendToken(1, t));
        full.push_back(t);
    }
    const TokenChain exported = source.exportChain(1);
    EXPECT_EQ(exported, TokenChain(bs, full));
    source.release(1);

    // The target rebuilds the same sequence; a second import of the
    // same chain on the target is a full prefix hit.
    const auto cold = target.importChain(7, exported);
    ASSERT_TRUE(cold.has_value());
    EXPECT_EQ(cold->cachedTokens, 0);
    EXPECT_EQ(target.seqTokens(7), 100);
    EXPECT_EQ(target.exportChain(7), exported);
    const auto warm = target.importChain(8, exported);
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(warm->cachedTokens, 96);
    // Back on the source, the published blocks are hits as well.
    const auto home = source.importChain(2, exported);
    ASSERT_TRUE(home.has_value());
    EXPECT_EQ(home->cachedTokens, 96);
    target.checkInvariants();
    source.checkInvariants();
}

TEST(TokenChain, CheckpointDeltaBytesFollowChainGrowth)
{
    // A workflow journals copies of its running chain; the store
    // charges only the tokens appended since the previous snapshot.
    serving::CheckpointPolicy policy;
    policy.enabled = true;
    policy.journalBytes = 100;
    serving::CheckpointStore store(policy, 1);
    agents::PromptBuilder running(16);
    running.add(agents::SegmentKind::Instruction, tokenRange(0, 50));
    std::int64_t expect = 0;
    std::int64_t prev = 0;
    for (int step = 0; step < 4; ++step) {
        running.add(agents::SegmentKind::LlmHistory,
                    tokenRange(1000 * (step + 1), 13 + step));
        serving::EpisodeCheckpoint ckpt;
        ckpt.chain = running.chain();
        store.put(3, std::move(ckpt), 2.0);
        expect += 100 + 2 * (running.size() - prev);
        prev = running.size();
        EXPECT_EQ(store.stats().bytesWritten, expect);
    }
    EXPECT_EQ(store.find(3)->chain, running.chain());
}

TEST(TokenChain, TrialPromptEqualsScratchBuild)
{
    // The running trial prompt (prefix, reflections, trajectory)
    // hashes exactly like the concatenated tokens hashed afresh.
    agents::PromptBuilder prefix(16);
    const auto instr = tokenRange(0, 45);
    prefix.add(agents::SegmentKind::Instruction, instr);
    agents::EpisodicMemory episodic;
    episodic.addReflection(tokenRange(100, 9));
    agents::TrajectoryMemory memory;
    memory.append(agents::SegmentKind::LlmHistory, tokenRange(200, 31));
    memory.append(agents::SegmentKind::ToolHistory, tokenRange(300, 17));

    const auto prompt =
        agents::trialPrompt(prefix, episodic, memory).build();
    std::vector<TokenId> all = instr;
    for (const auto &[start, n] :
         {std::pair<TokenId, std::size_t>{100, 9}, {200, 31}, {300, 17}}) {
        const auto part = tokenRange(start, n);
        all.insert(all.end(), part.begin(), part.end());
    }
    EXPECT_EQ(prompt.chain, TokenChain(16, all));
    EXPECT_EQ(prompt.breakdown.instruction, 45);
    EXPECT_EQ(prompt.breakdown.llmHistory, 9 + 31);
    EXPECT_EQ(prompt.breakdown.toolHistory, 17);
    // The prefix itself is untouched (trialPrompt copies it).
    EXPECT_EQ(prefix.size(), 45);
}

} // namespace
