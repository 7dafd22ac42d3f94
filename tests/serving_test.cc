/**
 * @file
 * Tests for the vLLM-style serving engine: request lifecycle,
 * continuous batching, prefix caching, preemption, failure paths,
 * accounting, and energy.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "serving/engine.hh"
#include "sim/awaitable.hh"
#include "sim/strfmt.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using serving::EngineConfig;
using serving::GenRequest;
using serving::GenResult;
using serving::LlmEngine;
using sim::Simulation;
using sim::Task;

EngineConfig
smallConfig(bool prefix_caching = true)
{
    EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.enablePrefixCaching = prefix_caching;
    return cfg;
}

std::vector<kv::TokenId>
prompt(std::uint64_t stream, std::int64_t n)
{
    return workload::makeTokens(workload::streamId(1, "test") + stream,
                                n);
}

Task<GenResult>
submit(LlmEngine &engine, std::vector<kv::TokenId> tokens,
       std::int64_t out)
{
    GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize, tokens);
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

TEST(Engine, SingleRequestCompletes)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submit(engine, prompt(0, 300), 50);
    sim.run();
    ASSERT_TRUE(t.done());
    const GenResult r = t.result();
    EXPECT_FALSE(r.failed);
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.tokens.size(), 50u);
    EXPECT_EQ(r.promptTokens, 300);
    EXPECT_GT(r.prefillSeconds, 0.0);
    EXPECT_GT(r.decodeSeconds, 0.0);
    EXPECT_GT(r.totalSeconds, r.prefillSeconds);
    EXPECT_DOUBLE_EQ(r.queueSeconds, 0.0);
    EXPECT_EQ(engine.stats().requestsCompleted, 1);
}

TEST(Engine, OutputTokensAreDeterministic)
{
    std::vector<kv::TokenId> first;
    for (int run = 0; run < 2; ++run) {
        Simulation sim;
        LlmEngine engine(sim, smallConfig());
        auto t = submit(engine, prompt(0, 100), 20);
        sim.run();
        auto r = t.result();
        if (run == 0)
            first = r.tokens;
        else
            EXPECT_EQ(first, r.tokens);
    }
}

/** Six staggered, overlapping requests on a fresh engine; returns
 *  every result's timings plus the event count and end time. */
std::string
staggeredDigest()
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    std::vector<Task<void>> clients;
    std::vector<GenResult> results(6);
    for (int i = 0; i < 6; ++i) {
        clients.push_back([](Simulation &s, LlmEngine &eng, int idx,
                             GenResult *out) -> Task<void> {
            co_await sim::delay(s, idx * 1000);
            *out = co_await submit(eng, prompt(7, 200 + idx * 40),
                                   30 + idx);
        }(sim, engine, i, &results[static_cast<std::size_t>(i)]));
    }
    sim.run();
    std::string d;
    for (const auto &r : results)
        d += sim::strfmt("[%lld %zu %.9f %.9f]",
                         static_cast<long long>(r.promptTokens),
                         r.tokens.size(), r.ttftSeconds,
                         r.totalSeconds);
    d += sim::strfmt(" ev=%llu t=%.9f",
                     static_cast<unsigned long long>(
                         sim.processedEvents()),
                     sim.nowSec());
    return d;
}

TEST(Engine, ConcurrentRunIsBitIdenticalAcrossFreshSimulations)
{
    // Batched, prefix-sharing requests on two fresh simulations must
    // agree on every timing and on the event count, not just tokens.
    const std::string a = staggeredDigest();
    EXPECT_EQ(a, staggeredDigest());
    EXPECT_EQ(a.rfind("[200 30 ", 0), 0u);
}

TEST(Engine, DecodeLatencyInCalibratedRange)
{
    // ~250 output tokens at ~15-20 ms/token -> a few seconds
    // (ShareGPT-like single request, paper: 4.23 s average).
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submit(engine, prompt(0, 310), 250);
    sim.run();
    const GenResult r = t.result();
    EXPECT_GT(r.totalSeconds, 2.0);
    EXPECT_LT(r.totalSeconds, 8.0);
}

TEST(Engine, PrefixCacheAcceleratesSecondRequest)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig(true));
    const auto p = prompt(7, 2000);
    auto t1 = submit(engine, p, 10);
    sim.run();
    const GenResult r1 = t1.result();

    auto t2 = submit(engine, p, 10);
    sim.run();
    const GenResult r2 = t2.result();

    EXPECT_EQ(r1.cachedPromptTokens, 0);
    EXPECT_GT(r2.cachedPromptTokens, 1900);
    EXPECT_LT(r2.prefillSeconds, 0.5 * r1.prefillSeconds);
}

TEST(Engine, NoCacheHitsWhenDisabled)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig(false));
    const auto p = prompt(7, 2000);
    auto t1 = submit(engine, p, 10);
    sim.run();
    auto t2 = submit(engine, p, 10);
    sim.run();
    EXPECT_EQ(t1.result().cachedPromptTokens, 0);
    EXPECT_EQ(t2.result().cachedPromptTokens, 0);
    EXPECT_EQ(engine.cacheStats().hitTokens, 0);
}

TEST(Engine, ContinuousBatchingOverlapsRequests)
{
    // Two concurrent requests should finish much sooner than twice the
    // single-request latency: decode steps share weight streaming.
    Simulation sim1;
    LlmEngine e1(sim1, smallConfig());
    auto a = submit(e1, prompt(1, 300), 100);
    sim1.run();
    const double solo = a.result().totalSeconds;

    Simulation sim2;
    LlmEngine e2(sim2, smallConfig());
    auto b = submit(e2, prompt(1, 300), 100);
    auto c = submit(e2, prompt(2, 300), 100);
    sim2.run();
    const double both = std::max(b.result().totalSeconds,
                                 c.result().totalSeconds);
    EXPECT_LT(both, 1.5 * solo);
    EXPECT_GT(both, solo);
}

TEST(Engine, ImpossiblePromptFails)
{
    auto cfg = smallConfig();
    // Tiny pool: 64 blocks of 16 tokens = 1024 tokens.
    cfg.kvPoolBytes = 64 * 16 * cfg.model.kvBytesPerToken();
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto t = submit(engine, prompt(0, 5000), 10);
    sim.run();
    const GenResult r = t.result();
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(engine.stats().requestsFailed, 1);
}

TEST(Engine, ContextWindowRejection)
{
    auto cfg = smallConfig();
    cfg.model.contextWindow = 4096;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto ok = submit(engine, prompt(1, 4000), 50);
    auto too_long = submit(engine, prompt(2, 4090), 50);
    sim.run();
    EXPECT_FALSE(ok.result().failed);
    const GenResult r = too_long.result();
    EXPECT_TRUE(r.failed);
    EXPECT_TRUE(r.tokens.empty());
    EXPECT_EQ(engine.stats().requestsFailed, 1);
}

TEST(Engine, PreemptionUnderMemoryPressure)
{
    auto cfg = smallConfig();
    // Room for roughly one long sequence at a time.
    cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
    Simulation sim;
    LlmEngine engine(sim, cfg);
    // Two requests that each want most of the pool while generating.
    auto a = submit(engine, prompt(11, 320), 260);
    auto b = submit(engine, prompt(12, 320), 260);
    sim.run();
    const GenResult ra = a.result();
    const GenResult rb = b.result();
    EXPECT_FALSE(ra.failed);
    EXPECT_FALSE(rb.failed);
    EXPECT_EQ(ra.tokens.size(), 260u);
    EXPECT_EQ(rb.tokens.size(), 260u);
    EXPECT_GT(engine.stats().preemptions, 0);
}

TEST(Engine, LoneRequestTruncatesWhenPoolFills)
{
    auto cfg = smallConfig();
    cfg.kvPoolBytes = 8 * 16 * cfg.model.kvBytesPerToken(); // 128 toks
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto t = submit(engine, prompt(0, 100), 500);
    sim.run();
    const GenResult r = t.result();
    EXPECT_TRUE(r.truncated);
    EXPECT_LT(r.tokens.size(), 500u);
    EXPECT_FALSE(r.failed);
}

TEST(Engine, StatsAccounting)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto a = submit(engine, prompt(1, 400), 60);
    auto b = submit(engine, prompt(2, 600), 40);
    sim.run();
    (void)a.result();
    (void)b.result();
    const auto &st = engine.stats();
    EXPECT_EQ(st.requestsSubmitted, 2);
    EXPECT_EQ(st.requestsCompleted, 2);
    // Each request's first output token is emitted by the
    // prefill-completion step (vLLM semantics), so decode steps
    // account for outputs minus one per request.
    EXPECT_EQ(st.decodeTokens, 60 + 40 - 2);
    // Prefill processed every prompt token except cache hits; also the
    // split attribution sums back to busy time.
    EXPECT_GE(st.prefillTokens, 900);
    EXPECT_NEAR(st.prefillSeconds + st.decodeSeconds, st.busySeconds,
                1e-9);
    EXPECT_LE(st.busySeconds, sim::toSeconds(sim.now()) + 1e-9);
    EXPECT_GT(st.totalFlops, 0.0);
}

TEST(Engine, KvGaugeReturnsToZero)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submit(engine, prompt(1, 500), 30);
    sim.run();
    (void)t.result();
    EXPECT_DOUBLE_EQ(engine.kvUsageGauge().current(), 0.0);
    EXPECT_GT(engine.kvUsageGauge().max(), 0.0);
}

TEST(Engine, EnergyIncludesIdleFloor)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submit(engine, prompt(1, 300), 50);
    sim.run();
    (void)t.result();
    const double wall = sim::toSeconds(sim.now());
    const double idle_floor =
        engine.config().node.gpu.idlePower * wall;
    const double busy_ceiling =
        engine.config().node.gpu.tdp * wall;
    const double joules = engine.energyJoules(sim.now());
    EXPECT_GT(joules, idle_floor);
    EXPECT_LT(joules, busy_ceiling);
}

TEST(Engine, ManyConcurrentRequestsAllComplete)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    std::vector<Task<GenResult>> tasks;
    for (int i = 0; i < 32; ++i)
        tasks.push_back(submit(engine, prompt(100 + i, 200 + i), 30));
    sim.run();
    for (auto &t : tasks) {
        ASSERT_TRUE(t.done());
        EXPECT_EQ(t.result().tokens.size(), 30u);
    }
    EXPECT_EQ(engine.stats().requestsCompleted, 32);
    EXPECT_GT(engine.batchGauge().max(), 1.0);
}

TEST(Engine, SharedPrefixAcrossConcurrentRequests)
{
    // LATS-style: many parallel calls share a long prompt prefix; the
    // KV pool should hold far fewer blocks than sum of sequences.
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    const auto shared = prompt(42, 1600);
    std::vector<Task<GenResult>> tasks;
    for (int i = 0; i < 8; ++i) {
        auto p = shared;
        auto tail = prompt(900 + i, 64);
        p.insert(p.end(), tail.begin(), tail.end());
        tasks.push_back(submit(engine, std::move(p), 20));
    }
    sim.run();
    std::int64_t cached = 0;
    for (auto &t : tasks)
        cached += t.result().cachedPromptTokens;
    // At least the later seven should have hit the shared 1600-token
    // prefix (modulo chunked-prefill publication timing).
    EXPECT_GT(cached, 7 * 1200);
    const double seq_tokens = 8.0 * (1600 + 64 + 20);
    const double peak_blocks = engine.kvUsageGauge().max();
    EXPECT_LT(peak_blocks * 16, seq_tokens * 0.5);
}

Task<GenResult>
submitDeadline(LlmEngine &engine, std::vector<kv::TokenId> tokens,
               std::int64_t out, double deadline)
{
    GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize, tokens);
    req.maxNewTokens = out;
    req.deadlineSeconds = deadline;
    co_return co_await engine.generate(std::move(req));
}

Task<GenResult>
submitTracked(LlmEngine &engine, std::vector<kv::TokenId> tokens,
              std::int64_t out, std::uint64_t *handle)
{
    GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize, tokens);
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req), handle);
}

TEST(Engine, DeadlineExpiresWhileDecoding)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submitDeadline(engine, prompt(0, 300), 2000, 0.5);
    sim.run();
    const GenResult r = t.result();
    EXPECT_TRUE(r.timedOut);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.retryable()); // the SLO is already missed
    // Partial decode output is returned with the timeout.
    EXPECT_GT(r.tokens.size(), 0u);
    EXPECT_LT(r.tokens.size(), 2000u);
    EXPECT_EQ(engine.stats().requestsTimedOut, 1);
    EXPECT_EQ(engine.stats().requestsCompleted, 0);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, DeadlineExpiresWhileQueued)
{
    auto cfg = smallConfig();
    cfg.maxRunningSeqs = 1;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto a = submit(engine, prompt(1, 300), 400);
    auto b = submitDeadline(engine, prompt(2, 300), 10, 0.2);
    sim.run();
    EXPECT_FALSE(a.result().timedOut);
    const GenResult rb = b.result();
    EXPECT_TRUE(rb.timedOut);
    EXPECT_EQ(rb.tokens.size(), 0u); // never scheduled
    EXPECT_DOUBLE_EQ(rb.queueSeconds, 0.0);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, CancelWhileQueued)
{
    auto cfg = smallConfig();
    cfg.maxRunningSeqs = 1;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto a = submit(engine, prompt(1, 300), 200);
    std::uint64_t handle = 0;
    auto b = submitTracked(engine, prompt(2, 300), 10, &handle);
    ASSERT_NE(handle, 0u); // valid as soon as generate() returns
    sim.schedule(sim::fromSeconds(0.05),
                 [&] { EXPECT_TRUE(engine.cancel(handle)); });
    sim.run();
    EXPECT_FALSE(a.result().cancelled);
    const GenResult rb = b.result();
    EXPECT_TRUE(rb.cancelled);
    EXPECT_FALSE(rb.nodeFailure);
    EXPECT_EQ(rb.tokens.size(), 0u);
    EXPECT_EQ(engine.stats().requestsCancelled, 1);
    // The id is gone: a second cancel is a no-op.
    EXPECT_FALSE(engine.cancel(handle));
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, CancelWhileDecodingMidStep)
{
    // Regression: the cancel lands while an engine step holding the
    // request in plan.decoders is in flight. commitStep must skip the
    // finished request instead of appending a token to its released
    // (now unknown) sequence.
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    std::uint64_t handle = 0;
    auto t = submitTracked(engine, prompt(3, 300), 2000, &handle);
    sim.schedule(sim::fromSeconds(0.8),
                 [&] { EXPECT_TRUE(engine.cancel(handle)); });
    sim.run();
    const GenResult r = t.result();
    EXPECT_TRUE(r.cancelled);
    EXPECT_GT(r.tokens.size(), 0u); // partial decode returned
    EXPECT_GT(r.decodeSeconds, 0.0);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    EXPECT_DOUBLE_EQ(engine.kvUsageGauge().current(), 0.0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, ShedUnderOverload)
{
    auto cfg = smallConfig();
    cfg.maxQueueDepth = 2;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    std::vector<Task<GenResult>> tasks;
    for (int i = 0; i < 5; ++i)
        tasks.push_back(submit(engine, prompt(10 + i, 200), 5));
    sim.run();
    int shed = 0, completed = 0;
    for (auto &t : tasks) {
        const GenResult r = t.result();
        if (r.shed) {
            ++shed;
            EXPECT_TRUE(r.retryable());
            EXPECT_EQ(r.tokens.size(), 0u);
        } else {
            ++completed;
            EXPECT_TRUE(r.ok());
        }
    }
    // All five arrive before the first engine step: two queue, the
    // rest bounce off the depth limit.
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(shed, 3);
    EXPECT_EQ(engine.stats().requestsShed, 3);
    EXPECT_EQ(engine.stats().requestsCompleted, 2);
}

TEST(Engine, CrashCancelsEverythingAndColdRestarts)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());

    // Warm the prefix cache.
    auto warm = submit(engine, prompt(7, 512), 4);
    sim.run();
    EXPECT_TRUE(warm.result().ok());
    auto warm2 = submit(engine, prompt(7, 512), 4);
    sim.run();
    EXPECT_GT(warm2.result().cachedPromptTokens, 0);

    // Crash mid-decode: the victim resumes with a retryable failure.
    auto victim = submit(engine, prompt(7, 512), 2000);
    sim.schedule(sim::fromSeconds(0.5), [&] { engine.crash(); });
    sim.run();
    const GenResult rv = victim.result();
    EXPECT_TRUE(rv.cancelled);
    EXPECT_TRUE(rv.nodeFailure);
    EXPECT_TRUE(rv.retryable());
    EXPECT_FALSE(engine.online());
    EXPECT_EQ(engine.stats().crashes, 1);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.blockManager().checkInvariants();

    // While down, the engine refuses work without queueing it.
    auto refused = submit(engine, prompt(7, 512), 4);
    sim.run();
    EXPECT_TRUE(refused.result().nodeFailure);

    // After restart the node serves again — with a cold cache.
    engine.restart();
    EXPECT_TRUE(engine.online());
    auto cold = submit(engine, prompt(7, 512), 4);
    sim.run();
    const GenResult rc = cold.result();
    EXPECT_TRUE(rc.ok());
    EXPECT_EQ(rc.cachedPromptTokens, 0);
}

TEST(Engine, HostRestoreTimeIsAccounted)
{
    auto cfg = smallConfig();
    cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
    cfg.hostCacheBlocks = 64;
    Simulation sim;
    LlmEngine engine(sim, cfg);

    // Fill with A, then evict it to the host tier with B.
    auto a = submit(engine, prompt(21, 512), 1);
    sim.run();
    ASSERT_TRUE(a.result().ok());
    auto b = submit(engine, prompt(22, 704), 1);
    sim.run();
    ASSERT_TRUE(b.result().ok());

    // Re-running A's prompt restores spilled blocks over PCIe; the
    // transfer time must show up in both per-request and engine
    // accounting (it is wall time, not GPU-busy time).
    auto c = submit(engine, prompt(21, 512), 1);
    sim.run();
    const GenResult rc = c.result();
    ASSERT_TRUE(rc.ok());
    EXPECT_GT(rc.cachedPromptTokens, 0);
    EXPECT_GT(rc.transferSeconds, 0.0);
    EXPECT_GT(engine.cacheStats().restoredTokens, 0);
    EXPECT_NEAR(engine.stats().transferSeconds, rc.transferSeconds,
                1e-12);
    engine.blockManager().checkInvariants();
}

TEST(Engine, NvmeRestoreCostsMoreThanDramRestore)
{
    // Same spill workload through a DRAM-only and an NVMe-only
    // hierarchy: the flash restore pays the (much lower) NVMe read
    // bandwidth, so its transfer charge is a multiple of the PCIe one.
    auto run = [](std::int64_t dram_blocks, std::int64_t nvme_blocks) {
        auto cfg = smallConfig();
        cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
        cfg.hostCacheBlocks = dram_blocks;
        cfg.nvmeCacheBlocks = nvme_blocks;
        Simulation sim;
        LlmEngine engine(sim, cfg);
        auto a = submit(engine, prompt(21, 512), 1);
        sim.run();
        EXPECT_TRUE(a.result().ok());
        auto b = submit(engine, prompt(22, 704), 1);
        sim.run();
        EXPECT_TRUE(b.result().ok());
        auto c = submit(engine, prompt(21, 512), 1);
        sim.run();
        return c.result();
    };
    const GenResult dram = run(64, 0);
    const GenResult nvme = run(0, 64);
    // Identical eviction/restore pattern, different price.
    EXPECT_EQ(dram.cachedPromptTokens, nvme.cachedPromptTokens);
    EXPECT_GT(dram.transferSeconds, 0.0);
    // A100 PCIe 25 GB/s vs NVMe read 3.5 GB/s: ~7x.
    EXPECT_GT(nvme.transferSeconds, 5.0 * dram.transferSeconds);
}

Task<GenResult>
submitParked(LlmEngine &engine, std::vector<kv::TokenId> tokens,
             std::int64_t out, double park_seconds)
{
    GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize, tokens);
    req.maxNewTokens = out;
    req.expectedParkSeconds = park_seconds;
    co_return co_await engine.generate(std::move(req));
}

TEST(Engine, ToolParkingDemotesAndPrefetchesChain)
{
    auto cfg = smallConfig();
    cfg.hostCacheBlocks = 256;
    // Exercise the parking mechanics unconditionally; the pressure
    // gate has its own test below.
    cfg.parkUtilizationThreshold = 0.0;
    Simulation sim;
    LlmEngine engine(sim, cfg);

    // Without a hint, finishing a request parks nothing.
    auto control = submit(engine, prompt(30, 256), 16);
    sim.run();
    ASSERT_TRUE(control.result().ok());
    EXPECT_EQ(engine.stats().parkedChains, 0);

    // A request carrying an expected tool wait parks its chain on
    // completion; the scheduled prefetch promotes it back before the
    // continuation arrives.
    const auto p = prompt(31, 512);
    auto t = submitParked(engine, p, 32, 1.2);
    sim.run();
    const GenResult parked = t.result();
    ASSERT_TRUE(parked.ok());
    EXPECT_EQ(engine.stats().parkedChains, 1);
    EXPECT_GT(engine.stats().parkedBlocks, 0);
    EXPECT_EQ(engine.stats().prefetchedBlocks,
              engine.stats().parkedBlocks);
    EXPECT_GT(engine.stats().parkDemoteSeconds, 0.0);
    EXPECT_GT(engine.stats().parkRestoreSeconds, 0.0);

    // The continuation (prompt + previous output) hits the GPU cache;
    // no restore transfer is charged on its critical path.
    auto continuation = p;
    continuation.insert(continuation.end(), parked.tokens.begin(),
                        parked.tokens.end());
    auto t2 = submit(engine, continuation, 8);
    sim.run();
    const GenResult cont = t2.result();
    ASSERT_TRUE(cont.ok());
    EXPECT_GT(cont.cachedPromptTokens, 500);
    EXPECT_DOUBLE_EQ(cont.transferSeconds, 0.0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, ParkingSkippedWhenPoolUncontended)
{
    // With the default pressure gate, a hinted request finishing on
    // an idle, mostly-empty pool keeps its chain in HBM: demoting it
    // would trade a free HBM hit for a priced restore.
    auto cfg = smallConfig();
    cfg.hostCacheBlocks = 256;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto t = submitParked(engine, prompt(33, 512), 16, 1.2);
    sim.run();
    const GenResult r = t.result();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(engine.stats().parkedChains, 0);
    EXPECT_EQ(engine.stats().parkedBlocks, 0);
    EXPECT_EQ(engine.blockManager().hostCachedBlocks(), 0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, ParkingIsInertWithoutSpillTiers)
{
    // The hint is advisory: with no tier configured the engine must
    // not park (and the run must match a hint-less run exactly).
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submitParked(engine, prompt(32, 256), 16, 1.2);
    sim.run();
    const GenResult hinted = t.result();
    ASSERT_TRUE(hinted.ok());
    EXPECT_EQ(engine.stats().parkedChains, 0);
    EXPECT_EQ(engine.stats().parkedBlocks, 0);

    Simulation sim2;
    LlmEngine plain(sim2, smallConfig());
    auto t2 = submit(plain, prompt(32, 256), 16);
    sim2.run();
    const GenResult bare = t2.result();
    EXPECT_EQ(hinted.tokens, bare.tokens);
    EXPECT_DOUBLE_EQ(hinted.totalSeconds, bare.totalSeconds);
}

TEST(Engine, InjectedStallExtendsWallClockNotBusyTime)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    engine.injectStall(0.25);
    auto t = submit(engine, prompt(5, 200), 20);
    sim.run();
    EXPECT_TRUE(t.result().ok());
    EXPECT_NEAR(engine.stats().stallSeconds, 0.25, 1e-12);
    // The stall extended the first step's wall time.
    EXPECT_GT(t.result().totalSeconds, 0.25);
    EXPECT_LT(engine.stats().busySeconds,
              t.result().totalSeconds);
}

// ---------------------------------------------------------------
// Graceful drain and live migration.
// ---------------------------------------------------------------

Task<serving::DrainOutcome>
drainAt(Simulation &sim, LlmEngine &engine, double when,
        double deadline, bool export_leftovers)
{
    co_await sim::delaySec(sim, when);
    co_return co_await engine.drain(deadline, export_leftovers);
}

Task<GenResult>
submitAt(Simulation &sim, LlmEngine &engine, double when,
         std::vector<kv::TokenId> tokens, std::int64_t out)
{
    co_await sim::delaySec(sim, when);
    co_return co_await submit(engine, std::move(tokens), out);
}

/** submitAt with a session id, for program-aware scheduler tests. */
Task<GenResult>
submitSessionAt(Simulation &sim, LlmEngine &engine, double when,
                std::vector<kv::TokenId> tokens, std::int64_t out,
                std::uint64_t sid)
{
    co_await sim::delaySec(sim, when);
    GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize, tokens);
    req.maxNewTokens = out;
    req.sessionId = sid;
    co_return co_await engine.generate(std::move(req));
}

/** Drain @p source at @p when and land every leftover on @p target. */
Task<void>
drainInto(Simulation &sim, LlmEngine &source, LlmEngine &target,
          double when, double deadline, int *migrated)
{
    co_await sim::delaySec(sim, when);
    auto outcome = co_await source.drain(deadline,
                                         /*export_leftovers=*/true);
    EXPECT_FALSE(outcome.crashed);
    for (auto &m : outcome.leftovers) {
        ++*migrated;
        target.importRequest(std::move(m), /*interconnect=*/200e9);
    }
}

TEST(Engine, DrainCompletesRunningAndRejectsNew)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto a = submit(engine, prompt(0, 300), 50);
    // Generous deadline: the running request finishes in place.
    auto d = drainAt(sim, engine, 0.2, 30.0, /*export=*/false);
    // Arrives after the drain began: bounced as a retryable node
    // failure, exactly like an offline node.
    auto late = submitAt(sim, engine, 0.3, prompt(1, 100), 10);
    sim.run();

    EXPECT_TRUE(a.result().ok());
    const auto outcome = d.result();
    EXPECT_EQ(outcome.completed, 1);
    EXPECT_TRUE(outcome.leftovers.empty());
    EXPECT_FALSE(outcome.crashed);
    EXPECT_TRUE(late.result().nodeFailure);
    EXPECT_TRUE(late.result().retryable());
    EXPECT_EQ(engine.stats().drains, 1);
    // Drain ends in the offline state (process restart semantics).
    EXPECT_FALSE(engine.online());
    engine.restart();
    EXPECT_TRUE(engine.accepting());
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.blockManager().checkInvariants();
}

TEST(Engine, DrainMigrationResumesWarmOnTarget)
{
    Simulation sim;
    LlmEngine source(sim, smallConfig());
    LlmEngine target(sim, smallConfig());
    auto t = submit(source, prompt(7, 400), 300);
    int migrated = 0;
    // The short deadline guarantees the request is still decoding at
    // the cutoff and gets exported mid-flight.
    auto d = drainInto(sim, source, target, 1.0, 0.3, &migrated);
    sim.run();

    EXPECT_EQ(migrated, 1);
    const GenResult r = t.result();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.tokens.size(), 300u);
    EXPECT_EQ(source.stats().requestsMigratedOut, 1);
    EXPECT_EQ(target.stats().requestsMigratedIn, 1);
    EXPECT_EQ(target.stats().migrationFallbacks, 0);
    // The target's cache is cold, so the chain paid an interconnect
    // transfer; decode resumed warm, so nothing was recomputed.
    EXPECT_GT(target.stats().migrationSeconds, 0.0);
    EXPECT_DOUBLE_EQ(target.stats().wastedSeconds, 0.0);
    EXPECT_GT(r.ledger.transferSeconds, 0.0);
    // Nothing was cancelled: migration is invisible to the client.
    EXPECT_EQ(source.stats().requestsCancelled, 0);
    EXPECT_DOUBLE_EQ(source.stats().lostPrefillSeconds, 0.0);
    EXPECT_EQ(source.blockManager().usedBlocks(), 0);
    source.blockManager().checkInvariants();
    target.blockManager().checkInvariants();
}

TEST(Engine, MigrationFallsBackColdWhenTargetPoolIsFull)
{
    auto cfg = smallConfig();
    Simulation sim;
    LlmEngine source(sim, smallConfig());
    // Target pool: 48 blocks. The resident request below holds ~30+
    // of them at import time, so the migrated chain cannot land and
    // the import falls back to recompute-preemption semantics.
    cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
    LlmEngine target(sim, cfg);
    auto resident = submit(target, prompt(20, 480), 200);
    auto t = submit(source, prompt(21, 400), 300);
    int migrated = 0;
    auto d = drainInto(sim, source, target, 1.0, 0.3, &migrated);
    sim.run();

    EXPECT_EQ(migrated, 1);
    EXPECT_TRUE(resident.result().ok());
    EXPECT_EQ(target.stats().migrationFallbacks, 1);
    // The request still completes — cold: its generated tokens folded
    // into the prompt and the re-prefill was charged as waste.
    const GenResult r = t.result();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.tokens.size(), 300u);
    EXPECT_GT(target.stats().wastedSeconds, 0.0);
    EXPECT_EQ(source.blockManager().usedBlocks(), 0);
    EXPECT_EQ(target.blockManager().usedBlocks(), 0);
    source.blockManager().checkInvariants();
    target.blockManager().checkInvariants();
}

TEST(Engine, AbortedMigrationResumesClientWithNodeFailure)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submit(engine, prompt(3, 400), 300);
    auto d = drainAt(sim, engine, 1.0, 0.3, /*export=*/true);
    sim.run();
    // drain() leaves the leftover unresolved until the caller routes
    // it; sim.run() returns with the export still in flight.
    auto outcome = d.result();
    ASSERT_EQ(outcome.leftovers.size(), 1u);
    EXPECT_FALSE(t.done());
    engine.abortMigration(std::move(outcome.leftovers.front()));
    sim.run();
    const GenResult r = t.result();
    EXPECT_TRUE(r.nodeFailure);
    EXPECT_TRUE(r.retryable());
    engine.blockManager().checkInvariants();
}

// ---------------------------------------------------------------
// Re-admission vs admission control (PR 4 bugfix).
// ---------------------------------------------------------------

TEST(Engine, RequeuedVictimsDoNotConsumeQueueDepth)
{
    // Regression: preemption re-admissions used to count against
    // maxQueueDepth, so a node paging KV in and out shed fresh
    // arrivals even though its real backlog was empty.
    auto cfg = smallConfig();
    cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
    cfg.maxQueueDepth = 1;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    // Two long requests thrash the pool (staggered so the second is
    // admitted before the queue-depth gate can see the first).
    auto a = submit(engine, prompt(11, 320), 260);
    auto b = submitAt(sim, engine, 0.5, prompt(12, 320), 260);
    // A small fresh arrival while the preemption victim sits requeued
    // must still be accepted: the victim is not backlog.
    auto probe = submitAt(sim, engine, 3.0, prompt(30, 32), 2);
    sim.run();

    EXPECT_GT(engine.stats().preemptions, 0);
    EXPECT_EQ(engine.stats().requestsShed, 0);
    EXPECT_TRUE(a.result().ok());
    EXPECT_TRUE(b.result().ok());
    EXPECT_TRUE(probe.result().ok());
    engine.blockManager().checkInvariants();
}

TEST(Engine, DeadlineExpiringMidStepEmitsNothing)
{
    // Regression: expiry was only checked at the top of the engine
    // loop, so a request whose deadline landed inside a step was
    // still charged for — and received — that step's token.
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    // 500 prompt tokens prefill in one step (several tens of ms); the
    // 10 ms deadline expires inside it, before the first token is
    // emitted by prefill completion.
    auto t = submitDeadline(engine, prompt(9, 500), 100, 0.01);
    sim.run();
    const GenResult r = t.result();
    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.tokens.size(), 0u);
    EXPECT_EQ(engine.stats().requestsTimedOut, 1);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.blockManager().checkInvariants();
}

// ---------------------------------------------------------------
// Scheduler orderings across preemption churn.
// ---------------------------------------------------------------

TEST(Engine, SpfOrderHoldsAcrossPreemptionRequeue)
{
    // A preemption victim re-enters at the deque front with its
    // generated tokens folded into a now-larger prompt. Under SPF a
    // small fresh arrival must still be admitted ahead of it.
    auto cfg = smallConfig();
    cfg.schedulerPolicy = serving::SchedulerPolicy::ShortestPromptFirst;
    cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
    Simulation sim;
    LlmEngine engine(sim, cfg);
    auto a = submit(engine, prompt(11, 320), 260);
    auto b = submit(engine, prompt(12, 320), 260);
    auto c = submitAt(sim, engine, 2.0, prompt(13, 64), 4);
    sim.run();

    EXPECT_GT(engine.stats().preemptions, 0);
    EXPECT_TRUE(a.result().ok());
    EXPECT_TRUE(b.result().ok());
    const GenResult rc = c.result();
    EXPECT_TRUE(rc.ok());
    // The probe jumped the requeued 300+-token victims; under FCFS it
    // would sit behind them for seconds.
    EXPECT_LT(rc.queueSeconds, 0.5);
    engine.blockManager().checkInvariants();
}

TEST(Engine, LasOrderHoldsAcrossPreemptionRequeue)
{
    // Same churn, program-aware scheduling: the requeued victims
    // belong to a session with heavy attained service, so a fresh
    // zero-service session is admitted first.
    auto cfg = smallConfig();
    cfg.schedulerPolicy =
        serving::SchedulerPolicy::LeastAttainedService;
    cfg.kvPoolBytes = 48 * 16 * cfg.model.kvBytesPerToken();
    Simulation sim;
    LlmEngine engine(sim, cfg);
    // Attained service is accrued per completed call, so the session
    // must finish an earlier call before its heavy ones are churned.
    auto a1 = submitSessionAt(sim, engine, 0.0, prompt(10, 320), 60,
                              /*sid=*/7);
    auto a2 = submitSessionAt(sim, engine, 1.5, prompt(11, 320), 260,
                              /*sid=*/7);
    auto b = submitSessionAt(sim, engine, 1.5, prompt(12, 320), 260,
                             /*sid=*/7);
    auto c = submitSessionAt(sim, engine, 3.5, prompt(13, 16), 2,
                             /*sid=*/9);
    sim.run();

    EXPECT_GT(engine.stats().preemptions, 0);
    EXPECT_TRUE(a1.result().ok());
    EXPECT_TRUE(a2.result().ok());
    EXPECT_TRUE(b.result().ok());
    const GenResult rc = c.result();
    EXPECT_TRUE(rc.ok());
    EXPECT_LT(rc.queueSeconds, 0.5);
    engine.blockManager().checkInvariants();
}

} // namespace
