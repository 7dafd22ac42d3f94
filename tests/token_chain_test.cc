/**
 * @file
 * Tests for kv::TokenChain, the append-only prompt representation:
 * its block hashes depend only on token content (never on how the
 * chain was assembled, literal tokens or stream runs in closed form),
 * copies fork independently, and the block manager, engine, migration
 * and checkpoint paths that consume chains see exactly what a
 * token-by-token hash of the same prompt would give.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "agents/workflows.hh"
#include "kv/block_manager.hh"
#include "kv/token_chain.hh"
#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "serving/checkpoint.hh"
#include "serving/engine.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using kv::BlockManager;
using kv::BlockManagerConfig;
using kv::TokenChain;
using kv::TokenId;

/** The field's modulus, 2^61 - 1. */
constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

/** a * b mod p by 128-bit remainder (not the chain's reduction). */
std::uint64_t
mulMod(std::uint64_t a, std::uint64_t b)
{
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) *
                                      b % kPrime);
}

/** x^e mod p, one multiply per step of e (no tables). */
std::uint64_t
powMod(std::uint64_t x, std::uint64_t e)
{
    std::uint64_t out = 1;
    for (; e != 0; e >>= 1, x = mulMod(x, x)) {
        if ((e & 1) != 0)
            out = mulMod(out, x);
    }
    return out;
}

/** Stream token @p i by definition: a_s g^i + b_s mod p. */
TokenId
referenceToken(std::uint64_t stream, std::uint64_t i)
{
    std::uint64_t a = sim::hashMix(stream ^ 0x5bd1e9955bd1e995ULL) % kPrime;
    if (a == 0)
        a = 1;
    const std::uint64_t b =
        sim::hashMix(stream ^ 0xc2b2ae3d27d4eb4fULL) % kPrime;
    return (mulMod(a, powMod(kv::gf::kG, i)) + b) % kPrime;
}

/**
 * Reference block hashes: the definition token by token, spelled out
 * from scratch and independently of TokenChain's closed form. A
 * block's polynomial is the Horner fold of its tokens (mod p) in base
 * r; its chain hash combines it with the previous block's seed.
 */
std::vector<std::uint64_t>
referenceHashes(std::span<const TokenId> tokens, int block_size)
{
    std::vector<std::uint64_t> out;
    std::uint64_t prev = 0;
    const auto bs = static_cast<std::size_t>(block_size);
    for (std::size_t b = 0; b + bs <= tokens.size(); b += bs) {
        std::uint64_t poly = 0;
        for (std::size_t i = b; i < b + bs; ++i)
            poly = (mulMod(poly, kv::gf::kR) + tokens[i] % kPrime) % kPrime;
        const std::uint64_t h = sim::hashCombine(
            sim::hashMix(prev ^ 0x9d5a3f7c1e284b69ULL), poly);
        out.push_back(h);
        prev = h;
    }
    return out;
}

/** Append @p tokens one literal token at a time. */
void
appendEach(TokenChain &chain, std::span<const TokenId> tokens)
{
    for (const TokenId &t : tokens)
        chain.append(std::span(&t, 1));
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
    // The partial block is a running hash, so only its length shows;
    // its content is checked through operator== by the callers.
    EXPECT_EQ(static_cast<std::size_t>(chain.tailSize()),
              tokens.size() % static_cast<std::size_t>(block_size));
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
        appendEach(one_by_one, tokens);
        expectMatches(one_by_one, tokens, bs);
        EXPECT_EQ(one_by_one, TokenChain(bs, tokens));
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, ChainSplits,
                         ::testing::Values(4, 16));

class StreamRuns : public ::testing::TestWithParam<int>
{
};

TEST_P(StreamRuns, AppendStreamEqualsAppendOfMadeTokens)
{
    const int bs = GetParam();
    const std::uint64_t stream = workload::streamId(9, "runs");
    const std::int64_t len = 3 * bs + 5;
    const auto tokens = workload::makeTokens(stream, len);
    const TokenChain want(bs, tokens);
    // Every split point, as two stream runs and as made tokens
    // followed by a run.
    for (std::int64_t split = 0; split <= len; ++split) {
        TokenChain runs(bs);
        runs.appendStream(stream, 0, split);
        runs.appendStream(stream, split, len - split);
        EXPECT_EQ(runs, want) << "split " << split;
        expectMatches(runs, tokens, bs);

        TokenChain mixed(bs, std::span(tokens).first(
                                 static_cast<std::size_t>(split)));
        mixed.appendStream(stream, split, len - split);
        EXPECT_EQ(mixed, want) << "split " << split;
    }
    // A run that starts past the stream's first token.
    for (const std::int64_t offset : {std::int64_t{1},
                                      std::int64_t{bs},
                                      std::int64_t{2 * bs + 3}}) {
        TokenChain chain(bs);
        chain.appendStream(stream, offset, 2 * bs + 1);
        EXPECT_EQ(chain, TokenChain(bs, workload::makeTokens(
                                            stream, 2 * bs + 1, offset)))
            << "offset " << offset;
    }
    // An empty run changes nothing, on an empty or a partial block.
    TokenChain empty(bs);
    empty.appendStream(stream, 7, 0);
    EXPECT_EQ(empty, TokenChain(bs));
    TokenChain partial(bs, std::span(tokens).first(5));
    partial.appendStream(stream, 5, 0);
    EXPECT_EQ(partial, TokenChain(bs, std::span(tokens).first(5)));
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, StreamRuns,
                         ::testing::Values(1, 16, 17));

TEST_P(StreamRuns, SeededRunsEqualLiteralFold)
{
    // A run at any offset (also past 2^32), of any length, after any
    // tail — literal tokens or a run of another stream — and split
    // anywhere, hashes like the literal fold of the same tokens.
    const int bs = GetParam();
    sim::Rng rng(2026, "chain.runs", static_cast<std::uint64_t>(bs));
    for (int trial = 0; trial < 300; ++trial) {
        const std::uint64_t stream = rng.next();
        const auto offset = static_cast<std::int64_t>(
            rng.bernoulli(0.5) ? rng.uniformInt(0, 100)
                               : rng.uniformInt(0, std::int64_t{1} << 40));
        const std::int64_t len = rng.uniformInt(0, 5 * bs + 3);
        const std::int64_t prior = rng.uniformInt(0, 2 * bs);
        const std::uint64_t prior_stream = rng.next();
        const bool prior_is_run = rng.bernoulli(0.5);

        TokenChain chain(bs);
        std::vector<TokenId> literal =
            workload::makeTokens(prior_stream, prior);
        if (prior_is_run)
            chain.append(kv::TokenRun{prior_stream, 0, prior});
        else
            chain.append(literal);
        const std::int64_t split = rng.uniformInt(0, len);
        chain.appendStream(stream, offset, split);
        chain.append(kv::TokenRun{stream, offset + split, len - split});

        const auto run = workload::makeTokens(stream, len, offset);
        literal.insert(literal.end(), run.begin(), run.end());
        SCOPED_TRACE(testing::Message() << "trial " << trial << " offset "
                                        << offset << " len " << len
                                        << " prior " << prior);
        EXPECT_EQ(chain, TokenChain(bs, literal));
        expectMatches(chain, literal, bs);
    }
}

TEST(TokenChain, StreamTokensMatchTheirDefinition)
{
    // makeTokens and tokenAt give a_s g^i + b_s, also at offsets past
    // 2^32 and where the made run crosses its four-lane stepping.
    const std::uint64_t stream = workload::streamId(5, "def");
    for (const std::int64_t offset :
         {std::int64_t{0}, std::int64_t{7}, std::int64_t{255},
          std::int64_t{256}, (std::int64_t{1} << 32) + 3,
          std::int64_t{0x0123456789abLL}}) {
        const auto made = workload::makeTokens(stream, 11, offset);
        for (std::size_t i = 0; i < made.size(); ++i) {
            const auto index = static_cast<std::uint64_t>(offset) + i;
            EXPECT_EQ(made[i], referenceToken(stream, index));
            EXPECT_EQ(kv::tokenAt(stream, index), made[i]);
        }
    }
}

TEST(TokenChain, DistinctBlocksAfterSamePrefix)
{
    // 10^5 single-block runs — 1000 streams at 100 offsets each, so
    // every stream is also compared with its shifted self — after one
    // shared prefix all hash differently.
    constexpr int kBs = 16;
    TokenChain prefix(kBs);
    prefix.appendStream(workload::streamId(6, "prefix"), 0, 2 * kBs);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(100000);
    for (std::uint64_t s = 0; s < 1000; ++s) {
        const std::uint64_t stream = workload::substream(7, s);
        for (std::int64_t offset = 0; offset < 100; ++offset) {
            TokenChain chain = prefix;
            chain.appendStream(stream, offset, kBs);
            ASSERT_EQ(chain.fullBlocks(), 3);
            hashes.push_back(chain.blockHashes().back());
        }
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()),
              hashes.end());
}


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
            appendEach(by_token, prompt);

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
    // Decode 30 tokens of an output stream: the exported chain is
    // prompt + output.
    const std::uint64_t output = workload::streamId(1, "chain.out");
    for (std::int64_t i = 0; i < 30; ++i)
        ASSERT_TRUE(source.appendToken(1, output, i));
    std::vector<TokenId> full = prompt;
    for (const TokenId t : workload::makeTokens(output, 30))
        full.push_back(t);
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
    running.add(agents::SegmentKind::Instruction,
                {workload::streamId(1, "ckpt.instr"), 0, 50});
    std::int64_t expect = 0;
    std::int64_t prev = 0;
    for (int step = 0; step < 4; ++step) {
        running.add(agents::SegmentKind::LlmHistory,
                    {workload::streamId(1, "ckpt.out"), 100 * step,
                     13 + step});
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
    using agents::Segment;
    using agents::SegmentKind;
    agents::PromptBuilder prefix(16);
    const std::uint64_t instr = workload::streamId(4, "instr");
    prefix.add(SegmentKind::Instruction, {instr, 0, 45});
    // LLM outputs are runs of their output streams; a continued
    // output starts past its stream's first token.
    const std::uint64_t reflection = workload::streamId(4, "reflection");
    const std::uint64_t action = workload::streamId(4, "action");
    agents::EpisodicMemory episodic;
    episodic.append(Segment{SegmentKind::LlmHistory, {reflection, 0, 9}});
    agents::TrajectoryMemory memory;
    memory.append(Segment{SegmentKind::LlmHistory, {action, 3, 31}});
    // A tool observation is a run as well.
    const std::uint64_t obs = workload::streamId(4, "obs");
    memory.append(Segment{SegmentKind::ToolHistory, {obs, 0, 17}});

    const auto prompt =
        agents::trialPrompt(prefix, episodic, memory).build();
    std::vector<TokenId> all;
    for (const auto &part :
         {workload::makeTokens(instr, 45),
          workload::makeTokens(reflection, 9),
          workload::makeTokens(action, 31, 3),
          workload::makeTokens(obs, 17)})
        all.insert(all.end(), part.begin(), part.end());
    EXPECT_EQ(prompt.chain, TokenChain(16, all));
    EXPECT_EQ(prompt.breakdown.instruction, 45);
    EXPECT_EQ(prompt.breakdown.llmHistory, 9 + 31);
    EXPECT_EQ(prompt.breakdown.toolHistory, 17);
    // The prefix itself is untouched (trialPrompt copies it).
    EXPECT_EQ(prefix.size(), 45);
}

serving::EngineConfig
engineConfig()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    return cfg;
}

sim::Task<serving::GenResult>
submitChain(serving::LlmEngine &engine, TokenChain prompt,
            std::int64_t out)
{
    serving::GenRequest req;
    req.prompt = std::move(prompt);
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

TEST(TokenChain, PreemptedOutputStaysOneStream)
{
    // A preempted request keeps its output stream: its result is one
    // run, identical to the same request's on a roomy engine, and the
    // blocks it published are what prompt + that run hits.
    auto run = [](std::int64_t pool_blocks, serving::GenResult *second,
                  std::int64_t *hit) {
        auto cfg = engineConfig();
        if (pool_blocks > 0)
            cfg.kvPoolBytes = pool_blocks * 16 * cfg.model.kvBytesPerToken();
        sim::Simulation sim;
        serving::LlmEngine engine(sim, cfg);
        const TokenChain a(16, workload::makeTokens(11, 320));
        const TokenChain b(16, workload::makeTokens(12, 320));
        auto ta = submitChain(engine, a, 260);
        auto tb = submitChain(engine, b, 260);
        sim.run();
        *second = tb.result();
        // The follow-up re-sends b's prompt and output.
        TokenChain next = b;
        next.append(second->output);
        auto tn = submitChain(engine, next, 1);
        sim.run();
        *hit = tn.result().cachedPromptTokens;
        EXPECT_TRUE(ta.result().ok());
    };
    serving::GenResult pressed;
    serving::GenResult roomy;
    std::int64_t pressed_hit = 0;
    std::int64_t roomy_hit = 0;
    run(48, &pressed, &pressed_hit);
    run(0, &roomy, &roomy_hit);
    ASSERT_TRUE(pressed.ok());
    EXPECT_EQ(pressed.preemptions, 1);
    EXPECT_EQ(roomy.preemptions, 0);
    EXPECT_EQ(pressed.output, roomy.output);
    EXPECT_EQ(pressed.output.offset, 0);
    EXPECT_EQ(pressed.output.count, 260);
    EXPECT_EQ(pressed_hit, (320 + 260) / 16 * 16);
    EXPECT_EQ(roomy_hit, pressed_hit);
}

/** Drain @p source at 1 s with a 0.3 s deadline and land every
 *  leftover on @p target. */
sim::Task<void>
drainInto(sim::Simulation &sim, serving::LlmEngine &source,
          serving::LlmEngine &target, int *migrated)
{
    co_await sim::delaySec(sim, 1.0);
    auto outcome = co_await source.drain(0.3, /*export_leftovers=*/true);
    for (auto &m : outcome.leftovers) {
        ++*migrated;
        target.importRequest(std::move(m), /*interconnect=*/200e9);
    }
}

TEST(TokenChain, MigratedOutputStaysOneStream)
{
    // A request exported mid-decode keeps its output stream on the
    // target, which publishes prompt + output as the run hits them.
    sim::Simulation sim;
    serving::LlmEngine source(sim, engineConfig());
    serving::LlmEngine target(sim, engineConfig());
    const TokenChain prompt(16, workload::makeTokens(21, 400));
    auto t = submitChain(source, prompt, 300);
    int migrated = 0;
    auto drain = drainInto(sim, source, target, &migrated);
    sim.run();
    ASSERT_EQ(migrated, 1);
    const serving::GenResult r = t.result();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.output.offset, 0);
    EXPECT_EQ(r.output.count, 300);

    // The same request unmigrated: the same first id on a same-seed
    // engine, so the same output stream.
    sim::Simulation solo_sim;
    serving::LlmEngine solo(solo_sim, engineConfig());
    auto ts = submitChain(solo, prompt, 300);
    solo_sim.run();
    EXPECT_EQ(ts.result().output, r.output);

    TokenChain next = prompt;
    next.append(r.output);
    auto tn = submitChain(target, next, 1);
    sim.run();
    EXPECT_EQ(tn.result().cachedPromptTokens, (400 + 300) / 16 * 16);
}

} // namespace
