/**
 * @file
 * Tests for the vLLM-style serving engine: request lifecycle,
 * continuous batching, prefix caching, preemption, failure paths,
 * accounting, and energy.
 */

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "serving/engine.hh"
#include "sim/awaitable.hh"
#include "sim/rng.hh"
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
submitChain(LlmEngine &engine, kv::TokenChain prompt, std::int64_t out)
{
    GenRequest req;
    req.prompt = std::move(prompt);
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

Task<GenResult>
submit(LlmEngine &engine, std::vector<kv::TokenId> tokens,
       std::int64_t out)
{
    return submitChain(
        engine, kv::TokenChain(engine.config().blockSize, tokens), out);
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
    EXPECT_EQ(r.output.count, 50);
    EXPECT_EQ(r.promptTokens, 300);
    EXPECT_GT(r.prefillSeconds, 0.0);
    EXPECT_GT(r.decodeSeconds, 0.0);
    EXPECT_GT(r.totalSeconds, r.prefillSeconds);
    EXPECT_DOUBLE_EQ(r.queueSeconds, 0.0);
    EXPECT_EQ(engine.stats().requestsCompleted, 1);
}

TEST(Engine, OutputTokensAreDeterministic)
{
    kv::TokenRun first;
    for (int run = 0; run < 2; ++run) {
        Simulation sim;
        LlmEngine engine(sim, smallConfig());
        auto t = submit(engine, prompt(0, 100), 20);
        sim.run();
        auto r = t.result();
        if (run == 0)
            first = r.output;
        else
            EXPECT_EQ(first, r.output);
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
        d += sim::strfmt("[%lld %lld %.9f %.9f]",
                         static_cast<long long>(r.promptTokens),
                         static_cast<long long>(r.output.count),
                         r.ttftSeconds,
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
    EXPECT_EQ(r.output.count, 0);
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
    EXPECT_EQ(ra.output.count, 260);
    EXPECT_EQ(rb.output.count, 260);
    EXPECT_GT(engine.stats().preemptions, 0);
    // Preemption and finish both released their sequences.
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
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
    EXPECT_LT(r.output.count, 500);
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
        EXPECT_EQ(t.result().output.count, 30);
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
    EXPECT_GT(r.output.count, 0);
    EXPECT_LT(r.output.count, 2000);
    EXPECT_EQ(engine.stats().requestsTimedOut, 1);
    EXPECT_EQ(engine.stats().requestsCompleted, 0);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
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
    EXPECT_EQ(rb.output.count, 0); // never scheduled
    EXPECT_DOUBLE_EQ(rb.queueSeconds, 0.0);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
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
    EXPECT_EQ(rb.output.count, 0);
    EXPECT_EQ(engine.stats().requestsCancelled, 1);
    // The id is gone: a second cancel is a no-op.
    EXPECT_FALSE(engine.cancel(handle));
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
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
    EXPECT_GT(r.output.count, 0); // partial decode returned
    EXPECT_GT(r.decodeSeconds, 0.0);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    EXPECT_DOUBLE_EQ(engine.kvUsageGauge().current(), 0.0);
    engine.checkInvariants();
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
            EXPECT_EQ(r.output.count, 0);
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
    engine.checkInvariants();

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
    engine.checkInvariants();
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
    kv::TokenChain continuation(cfg.blockSize, p);
    continuation.append(parked.output);
    auto t2 = submitChain(engine, std::move(continuation), 8);
    sim.run();
    const GenResult cont = t2.result();
    ASSERT_TRUE(cont.ok());
    EXPECT_GT(cont.cachedPromptTokens, 500);
    EXPECT_DOUBLE_EQ(cont.transferSeconds, 0.0);
    engine.checkInvariants();
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
    engine.checkInvariants();
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
    EXPECT_EQ(hinted.output, bare.output);
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
    engine.checkInvariants();
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
    EXPECT_EQ(r.output.count, 300);
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
    EXPECT_EQ(target.blockManager().usedBlocks(), 0);
    source.checkInvariants();
    target.checkInvariants();
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
    EXPECT_EQ(r.output.count, 300);
    EXPECT_GT(target.stats().wastedSeconds, 0.0);
    EXPECT_EQ(source.blockManager().usedBlocks(), 0);
    EXPECT_EQ(target.blockManager().usedBlocks(), 0);
    source.checkInvariants();
    target.checkInvariants();
}

/**
 * Drain @p source at 1 s and land its leftover on @p target over a
 * slow wire, then crash @p target 10 ms into the transfer. Unless
 * @p stay_down, restart it at once and start @p filler there.
 */
Task<void>
crashDuringImport(Simulation &sim, LlmEngine &source, LlmEngine &target,
                  bool stay_down, std::optional<Task<GenResult>> *filler)
{
    co_await sim::delaySec(sim, 1.0);
    auto outcome = co_await source.drain(0.3, /*export_leftovers=*/true);
    for (auto &m : outcome.leftovers)
        target.importRequest(std::move(m), /*interconnect=*/1e8);
    co_await sim::delaySec(sim, 0.01);
    target.crash();
    if (stay_down)
        co_return;
    target.restart();
    filler->emplace(submit(target, prompt(23, 200), 100));
}

// The one place a request keeps a sequence handle past its sequence:
// the target crashes while an import's KV is on the wire, and reset()
// empties the pool under the reserved chain. On activation the handle
// must read as gone, also once a restarted pool has given its slot to
// another sequence.
TEST(Engine, CrashDuringImportTransferOutdatesTheHandle)
{
    for (const bool stay_down : {true, false}) {
        SCOPED_TRACE(stay_down ? "target stays down" : "target restarts");
        Simulation sim;
        LlmEngine source(sim, smallConfig());
        LlmEngine target(sim, smallConfig());
        auto t = submit(source, prompt(22, 400), 300);
        std::optional<Task<GenResult>> filler;
        auto d = crashDuringImport(sim, source, target, stay_down, &filler);
        sim.run();

        EXPECT_EQ(target.stats().requestsMigratedIn, 1);
        EXPECT_EQ(target.stats().migrationFallbacks, 0);
        const GenResult r = t.result();
        if (stay_down) {
            EXPECT_TRUE(r.nodeFailure);
            EXPECT_TRUE(r.retryable());
            target.restart();
        } else {
            // Landed cold behind the filler, which took the slot.
            ASSERT_TRUE(filler.has_value());
            EXPECT_TRUE(filler->result().ok());
            EXPECT_TRUE(r.ok());
            EXPECT_EQ(r.output.count, 300);
            EXPECT_GT(target.stats().wastedSeconds, 0.0);
        }
        EXPECT_EQ(source.blockManager().usedBlocks(), 0);
        EXPECT_EQ(target.blockManager().usedBlocks(), 0);
        source.checkInvariants();
        target.checkInvariants();
    }
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
    engine.checkInvariants();
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
    engine.checkInvariants();
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
    EXPECT_EQ(r.output.count, 0);
    EXPECT_EQ(engine.stats().requestsTimedOut, 1);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
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
    engine.checkInvariants();
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
    engine.checkInvariants();
}

// ---------------------------------------------------------------
// Semantics the dense engine step keeps: expiry order, stale plan
// entries, deadlines across migration.
// ---------------------------------------------------------------

/** submitDeadline that logs @p label once its awaiter resumes. */
Task<GenResult>
submitLogged(LlmEngine &engine, std::vector<kv::TokenId> tokens,
             std::int64_t out, double deadline, int label,
             std::vector<int> *log)
{
    GenResult r =
        co_await submitDeadline(engine, std::move(tokens), out, deadline);
    log->push_back(label);
    co_return r;
}

TEST(Engine, SameTickDeadlinesCancelWaitingThenRunning)
{
    // Four requests share one deadline tick: 1 and 2 run, 3 and 4
    // wait behind the two-sequence cap. They expire in one check, and
    // their awaiters resume in waiting-queue order, then in running
    // (admission) order.
    auto cfg = smallConfig();
    cfg.maxRunningSeqs = 2;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    std::vector<int> log;
    std::vector<Task<GenResult>> tasks;
    for (int label = 1; label <= 4; ++label) {
        tasks.push_back(submitLogged(engine, prompt(40 + label, 200), 2000,
                                     0.3, label, &log));
    }
    sim.run();

    EXPECT_EQ(log, (std::vector<int>{3, 4, 1, 2}));
    for (auto &t : tasks) {
        const GenResult r = t.result();
        EXPECT_TRUE(r.timedOut);
        EXPECT_EQ(r.finishTick, tasks.front().result().finishTick);
    }
    EXPECT_GE(tasks.front().result().finishTick, sim::fromSeconds(0.3));
    EXPECT_EQ(engine.stats().requestsTimedOut, 4);
    EXPECT_EQ(engine.pendingDeadlines(), 0u);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
}

TEST(Engine, CancelDuringStepReusesSlotSafely)
{
    // A is cancelled while a step that plans it (prefill at 0.1 s,
    // decode at 2 s) is in flight, and B is submitted in the same
    // tick, reusing whatever A released. The stale plan entry must
    // neither emit nor charge anything: B costs exactly what it costs
    // when it runs alone, and the engine's KV integral is the sum of
    // the two ledgers.
    Simulation solo_sim;
    LlmEngine solo(solo_sim, smallConfig());
    auto alone = submit(solo, prompt(51, 300), 40);
    solo_sim.run();
    const GenResult want = alone.result();

    for (const double when : {0.1, 2.0}) {
        SCOPED_TRACE(sim::strfmt("cancel at %.1f s", when));
        Simulation sim;
        LlmEngine engine(sim, smallConfig());
        std::uint64_t handle = 0;
        auto a = submitTracked(engine, prompt(50, 4000), 2000, &handle);
        std::optional<Task<GenResult>> b;
        sim.schedule(sim::fromSeconds(when), [&] {
            EXPECT_TRUE(engine.cancel(handle));
            b.emplace(submit(engine, prompt(51, 300), 40));
        });
        sim.run();

        const GenResult ra = a.result();
        EXPECT_TRUE(ra.cancelled);
        EXPECT_EQ(ra.output.count == 0, when < 1.0);
        ASSERT_TRUE(b.has_value());
        const GenResult rb = b->result();
        EXPECT_TRUE(rb.ok());
        EXPECT_EQ(rb.output.count, want.output.count);
        EXPECT_EQ(rb.prefillSeconds, want.prefillSeconds);
        EXPECT_EQ(rb.decodeSeconds, want.decodeSeconds);
        EXPECT_EQ(rb.flops, want.flops);
        EXPECT_EQ(rb.ledger.prefillGpuSeconds, want.ledger.prefillGpuSeconds);
        EXPECT_EQ(rb.ledger.decodeGpuSeconds, want.ledger.decodeGpuSeconds);
        EXPECT_EQ(rb.ledger.energyJoules, want.ledger.energyJoules);
        EXPECT_EQ(rb.ledger.kvBlockSeconds, want.ledger.kvBlockSeconds);
        EXPECT_DOUBLE_EQ(engine.stats().kvBlockSeconds,
                         ra.ledger.kvBlockSeconds +
                             rb.ledger.kvBlockSeconds);
        EXPECT_EQ(engine.stats().requestsCancelled, 1);
        EXPECT_EQ(engine.stats().requestsCompleted, 1);
        EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
        engine.checkInvariants();
    }
}

TEST(Engine, CancelTouchesOnlyTheNamedRequest)
{
    // Regression: cancel() passed cancelRequest a reference into the
    // queue it then erased from, so cancelling a request with another
    // queued behind it resolved that neighbour instead (and left the
    // named one orphaned). 1 and 2 run, 3 and 4 wait; cancel 1 and 3.
    auto cfg = smallConfig();
    cfg.maxRunningSeqs = 2;
    Simulation sim;
    LlmEngine engine(sim, cfg);
    std::vector<std::uint64_t> ids(4, 0);
    std::vector<Task<GenResult>> tasks;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        tasks.push_back(submitTracked(engine, prompt(70 + i, 200), 50,
                                      &ids[i]));
    }
    sim.schedule(sim::fromSeconds(0.1), [&] {
        EXPECT_TRUE(engine.cancel(ids[0]));
        EXPECT_TRUE(engine.cancel(ids[2]));
    });
    sim.run();

    EXPECT_TRUE(tasks[0].result().cancelled);
    EXPECT_TRUE(tasks[2].result().cancelled);
    for (const std::size_t i : {1u, 3u}) {
        const GenResult r = tasks[i].result();
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.output.count, 50);
    }
    EXPECT_EQ(engine.stats().requestsCancelled, 2);
    EXPECT_EQ(engine.stats().requestsCompleted, 2);
    EXPECT_EQ(engine.blockManager().usedBlocks(), 0);
    engine.checkInvariants();
}

TEST(Engine, DeadlineFollowsMigration)
{
    // Exported at 1.3 s with a 1.5 s deadline and landed on a peer:
    // the deadline tick travels with the request, so the target times
    // it out at the first step boundary past 1.5 s, not 1.5 s after
    // the import.
    {
        Simulation sim;
        LlmEngine source(sim, smallConfig());
        LlmEngine target(sim, smallConfig());
        auto t = submitDeadline(source, prompt(60, 400), 2000, 1.5);
        int migrated = 0;
        auto d = drainInto(sim, source, target, 1.0, 0.3, &migrated);
        sim.run();

        EXPECT_EQ(migrated, 1);
        const GenResult r = t.result();
        EXPECT_TRUE(r.timedOut);
        EXPECT_GE(r.finishTick, sim::fromSeconds(1.5));
        EXPECT_LT(r.finishTick, sim::fromSeconds(1.6));
        EXPECT_EQ(source.stats().requestsTimedOut, 0);
        EXPECT_EQ(target.stats().requestsTimedOut, 1);
        EXPECT_EQ(source.pendingDeadlines(), 0u);
        EXPECT_EQ(target.pendingDeadlines(), 0u);
        EXPECT_EQ(target.blockManager().usedBlocks(), 0);
        target.checkInvariants();
    }
    // An aborted migration leaves no deadline behind on the source:
    // a restarted engine serves a new request past the old deadline.
    {
        Simulation sim;
        LlmEngine engine(sim, smallConfig());
        auto t = submitDeadline(engine, prompt(61, 400), 2000, 1.5);
        auto d = drainAt(sim, engine, 1.0, 0.3, /*export=*/true);
        sim.run();
        auto outcome = d.result();
        ASSERT_EQ(outcome.leftovers.size(), 1u);
        EXPECT_EQ(engine.pendingDeadlines(), 0u); // left with the export
        engine.abortMigration(std::move(outcome.leftovers.front()));
        EXPECT_EQ(engine.pendingDeadlines(), 0u);
        sim.run();
        EXPECT_TRUE(t.result().nodeFailure);
        EXPECT_EQ(engine.stats().requestsTimedOut, 0);

        engine.restart();
        auto next = submit(engine, prompt(62, 300), 400);
        sim.run();
        EXPECT_TRUE(next.result().ok());
        EXPECT_GT(next.result().finishTick, sim::fromSeconds(1.5));
        EXPECT_EQ(engine.stats().requestsTimedOut, 0);
        engine.checkInvariants();
    }
}

// ---------------------------------------------------------------
// Ledger pin: the order in which a step accumulates its doubles.
// ---------------------------------------------------------------

/** One request of a seeded pin load. */
struct PinRequest
{
    double at = 0.0;
    kv::TokenChain prompt;
    std::int64_t out = 1;
    double deadline = 0.0;
    double park = 0.0;
    /** Seconds after submission to cancel it (< 0: never). */
    double cancelAfter = -1.0;
};

/** Shape of a seeded pin load: Poisson arrivals of prompts that share
 *  one of three heads, and the fractions carrying each option. */
struct PinLoad
{
    int requests = 24;
    double qps = 12.0;
    double deadlineFrac = 0.0;
    double cancelFrac = 0.0;
    double parkFrac = 0.0;
};

std::vector<PinRequest>
pinRequests(std::uint64_t seed, int block_size, const PinLoad &load)
{
    sim::Rng rng(seed);
    const std::uint64_t base = workload::streamId(seed, "pin");
    std::vector<PinRequest> out;
    double at = 0.0;
    for (int i = 0; i < load.requests; ++i) {
        at += rng.exponential(1.0 / load.qps);
        PinRequest r;
        r.at = at;
        r.prompt = kv::TokenChain(block_size);
        r.prompt.appendStream(base + static_cast<std::uint64_t>(
                                         rng.uniformInt(0, 2)),
                              0, rng.uniformInt(0, 320));
        r.prompt.appendStream(base + 100 + static_cast<std::uint64_t>(i),
                              0, rng.uniformInt(8, 400));
        r.out = rng.uniformInt(1, 160);
        if (rng.bernoulli(load.deadlineFrac))
            r.deadline = rng.uniform(0.02, 1.5);
        if (rng.bernoulli(load.cancelFrac))
            r.cancelAfter = rng.uniform(0.01, 1.0);
        if (rng.bernoulli(load.parkFrac))
            r.park = rng.uniform(0.2, 1.5);
        out.push_back(std::move(r));
    }
    return out;
}

/** What a pin request saw: its result, and its engine's statistics
 *  once its completion resumed it (the end of the step it finished
 *  in), so the engine's sums are pinned step by step, not only at the
 *  end of the run, where a last-bit difference can round away. */
struct PinOutcome
{
    GenResult result;
    serving::EngineStats stats;
};

Task<PinOutcome>
pinSubmit(Simulation &sim, LlmEngine &engine, PinRequest spec)
{
    co_await sim::delaySec(sim, spec.at);
    GenRequest req;
    req.prompt = std::move(spec.prompt);
    req.maxNewTokens = spec.out;
    req.deadlineSeconds = spec.deadline;
    req.expectedParkSeconds = spec.park;
    std::uint64_t id = 0;
    auto call = engine.generate(std::move(req), &id);
    if (spec.cancelAfter >= 0.0 && id != 0) {
        sim.schedule(sim::fromSeconds(spec.cancelAfter),
                     [&engine, id] { engine.cancel(id); });
    }
    PinOutcome out;
    out.result = co_await call;
    out.stats = engine.stats();
    co_return out;
}

/** FNV-1a over 64-bit words: doubles by their bit patterns. */
struct BitsDigest
{
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void add(std::uint64_t v) { value = (value ^ v) * 0x100000001b3ULL; }
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void
    add(const GenResult &r)
    {
        add(r.output.count);
        add(r.finishTick);
        for (const double v :
             {r.queueSeconds, r.prefillSeconds, r.decodeSeconds,
              r.transferSeconds, r.totalSeconds, r.ttftSeconds, r.flops,
              r.ledger.queueSeconds, r.ledger.prefillGpuSeconds,
              r.ledger.decodeGpuSeconds, r.ledger.wastedGpuSeconds,
              r.ledger.savedPrefillSeconds, r.ledger.kvBlockSeconds,
              r.ledger.transferSeconds, r.ledger.energyJoules}) {
            add(v);
        }
    }

    void
    add(const serving::EngineStats &s)
    {
        for (const auto &f : serving::kEngineStatFields)
            std::visit([&](auto m) { add(s.*m); }, f.member);
    }
};

/**
 * Run a seeded pin load on one engine, or, with @p migrate, on a
 * source that drains into a loaded target at 1 s, and digest every
 * result and every engine statistic.
 */
std::uint64_t
ledgerDigest(const EngineConfig &cfg, const PinLoad &load,
             std::uint64_t seed, bool migrate,
             serving::EngineStats *source_stats,
             serving::EngineStats *target_stats = nullptr)
{
    Simulation sim;
    LlmEngine engine(sim, cfg);
    std::optional<LlmEngine> target;
    std::vector<Task<PinOutcome>> tasks;
    for (auto &r : pinRequests(seed, cfg.blockSize, load))
        tasks.push_back(pinSubmit(sim, engine, std::move(r)));
    std::optional<Task<void>> drain;
    int migrated = 0;
    if (migrate) {
        target.emplace(sim, cfg);
        for (auto &r : pinRequests(seed + 1, cfg.blockSize, load))
            tasks.push_back(pinSubmit(sim, *target, std::move(r)));
        drain.emplace(drainInto(sim, engine, *target, 1.0, 0.05,
                                &migrated));
    }
    sim.run();

    BitsDigest d;
    for (auto &t : tasks) {
        d.add(t.result().result);
        d.add(t.result().stats);
    }
    d.add(engine.stats());
    *source_stats = engine.stats();
    if (target) {
        d.add(target->stats());
        *target_stats = target->stats();
        target->checkInvariants();
    }
    engine.checkInvariants();
    return d.value;
}

// Pins every double a request's ledger and the engine's statistics
// accumulate, bit for bit, at each completion and at the end of the
// run, across the step's branches: chunked
// prefill, preemption, deadlines and cancels landing mid-step, spill
// tiers with parking, and warm migration imports. A step that sums in
// another order changes a last bit and the digest.
TEST(EnginePin, StepLedgerBits)
{
    const std::uint64_t seed = 2026;
    serving::EngineStats s;
    serving::EngineStats t;

    auto cfg = smallConfig();
    cfg.maxBatchTokens = 128;
    EXPECT_EQ(ledgerDigest(cfg, {}, seed, false, &s),
              14631486469203798467ULL);

    cfg = smallConfig();
    cfg.kvPoolBytes = 96 * 16 * cfg.model.kvBytesPerToken();
    EXPECT_EQ(ledgerDigest(cfg, {}, seed, false, &s),
              366628894726777795ULL);
    EXPECT_GT(s.preemptions, 0);

    cfg = smallConfig();
    EXPECT_EQ(ledgerDigest(cfg, {.deadlineFrac = 0.3, .cancelFrac = 0.3},
                           seed, false, &s),
              10223235684040358903ULL);
    EXPECT_GT(s.requestsTimedOut, 0);
    EXPECT_GT(s.requestsCancelled, 0);

    cfg = smallConfig();
    cfg.kvPoolBytes = 96 * 16 * cfg.model.kvBytesPerToken();
    cfg.hostCacheBlocks = 48;
    cfg.nvmeCacheBlocks = 64;
    cfg.kvDramAdmitProb = 0.7;
    EXPECT_EQ(ledgerDigest(cfg, {.parkFrac = 0.5}, seed, false, &s),
              2944302966459378551ULL);
    EXPECT_GT(s.parkedChains, 0);
    EXPECT_GT(s.transferSeconds, 0.0);

    cfg = smallConfig();
    EXPECT_EQ(ledgerDigest(cfg, {.qps = 24.0}, seed, true, &s, &t),
              10031956482219200711ULL);
    EXPECT_GT(t.requestsMigratedIn, 0);
    EXPECT_EQ(t.migrationFallbacks, 0);
}

// Regression: a prompt completing on a block boundary takes the fresh
// block that a boundary-crossing decoder of the same step was
// promised, and that decoder's append panicked ("decode append failed
// despite reservation"). 40 requests on a 96- or 128-block pool hit
// it. The decoder is preempted instead: every request still completes.
TEST(Engine, BoundaryCompletionLeavesDecodersTheirBlocks)
{
    for (const std::int64_t blocks : {96, 128}) {
        SCOPED_TRACE(sim::strfmt("%lld blocks", static_cast<long long>(
                                                    blocks)));
        auto cfg = smallConfig();
        cfg.kvPoolBytes = blocks * 16 * cfg.model.kvBytesPerToken();
        serving::EngineStats s;
        ledgerDigest(cfg, {.requests = 40}, 2026, false, &s);
        EXPECT_GT(s.preemptions, 0);
        EXPECT_EQ(s.requestsCompleted, 40);
    }
}

// A warm import that lands while the target's step is in flight joins
// the batch after that step was planned: the step gives it no token,
// and it decodes from the next step on. A prompt that completes its
// prefill in a step gets its one first token there, and no decode
// token on top. Both hold if a step hands tokens to its planned
// decoders, not to whatever decodes when it commits.
TEST(Engine, WarmImportMidStepWaitsForTheNextStep)
{
    Simulation sim;
    LlmEngine source(sim, smallConfig());
    LlmEngine target(sim, smallConfig());
    auto a = submit(source, prompt(80, 200), 2000);
    auto b = submit(target, prompt(81, 300), 400);
    // Lands mid-step on target: completes its prefill in one step.
    auto c = submitAt(sim, target, 0.3, prompt(82, 100), 2);

    std::int64_t exported_tokens = 0;
    std::int64_t steps_at_activation = -1;
    std::int64_t steps_at_cancel = -1;
    sim.schedule(sim::fromSeconds(0.5), [&] {
        auto m = source.exportRequest(1);
        ASSERT_TRUE(m.has_value());
        exported_tokens = m->chain.size() - 200;
        ASSERT_GT(exported_tokens, 0);
        // About 1 ms on the wire: the activation lands inside one of
        // target's ~10 ms decode steps, after the step was planned.
        const double bandwidth =
            static_cast<double>(m->computedTokens) *
            static_cast<double>(smallConfig().model.kvBytesPerToken()) /
            1e-3;
        target.importRequest(std::move(*m), bandwidth);
        // Scheduled after the activation at the same tick: runs next.
        sim.schedule(sim::fromSeconds(1e-3), [&] {
            steps_at_activation = target.stats().steps;
            EXPECT_EQ(target.runningCount(), 2u);
            target.checkInvariants();
        });
    });
    sim.schedule(sim::fromSeconds(1.0), [&] {
        steps_at_cancel = target.stats().steps;
        target.checkInvariants();
        // target's ids: b is 1, c is 2, the import is 3.
        EXPECT_TRUE(target.cancel(3));
    });
    sim.run();

    const GenResult ra = a.result();
    ASSERT_TRUE(ra.cancelled);
    ASSERT_GT(steps_at_activation, 0);
    // One token per step committed after the activation's, and none
    // from the step in flight when it landed or when it was cancelled.
    EXPECT_EQ(ra.output.count,
              exported_tokens + steps_at_cancel - steps_at_activation - 1);

    const GenResult rb = b.result();
    const GenResult rc = c.result();
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(rc.ok());
    EXPECT_EQ(rc.output.count, 2);
    // First token at the prefill step's end, the second a step later.
    EXPECT_GT(rc.totalSeconds, rc.ttftSeconds);
    EXPECT_GT(rc.decodeSeconds, 0.0);
    // Every token target emitted is a first token (b, c) or a planned
    // decode; the import's decode planned in the step its cancel landed
    // in is priced but not emitted.
    EXPECT_EQ(target.stats().decodeTokens,
              rb.output.count - 1 + rc.output.count - 1 + ra.output.count -
                  exported_tokens + 1);
    // Occupancy is conserved across the move: the two engines' KV
    // integrals are the requests' ledgers.
    EXPECT_DOUBLE_EQ(source.stats().kvBlockSeconds +
                         target.stats().kvBlockSeconds,
                     ra.ledger.kvBlockSeconds + rb.ledger.kvBlockSeconds +
                         rc.ledger.kvBlockSeconds);
    EXPECT_EQ(target.blockManager().usedBlocks(), 0);
    source.checkInvariants();
    target.checkInvariants();
}

} // namespace
