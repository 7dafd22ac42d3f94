/**
 * @file
 * google-benchmark micro benchmarks for the hot substrate paths: the
 * event queue, coroutine scheduling, the KV block manager (allocation
 * and prefix lookups), the roofline perf model, and RNG streams.
 */

#include <benchmark/benchmark.h>

#include "core/probe.hh"
#include "kv/block_manager.hh"
#include "llm/perf_model.hh"
#include "sim/awaitable.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;

void
BM_EventQueuePushPop(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < n; ++i)
            q.push((i * 7919) % 1000, [] {});
        while (!q.empty())
            benchmark::DoNotOptimize(q.pop().when);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

sim::Task<void>
hopper(sim::Simulation &sim, int hops)
{
    for (int i = 0; i < hops; ++i)
        co_await sim::delay(sim, 1);
}

void
BM_CoroutineHops(benchmark::State &state)
{
    const int hops = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        auto t = hopper(sim, hops);
        sim.run();
        benchmark::DoNotOptimize(t.done());
    }
    state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineHops)->Arg(1000);

void
BM_KvAllocateRelease(benchmark::State &state)
{
    kv::BlockManagerConfig cfg;
    cfg.numBlocks = 4096;
    cfg.blockSize = 16;
    cfg.enablePrefixCaching = true;
    kv::BlockManager mgr(cfg);
    const kv::TokenChain prompt(
        cfg.blockSize,
        workload::makeTokens(workload::streamId(1, "bm"), 1024));
    kv::SeqId next = 1;
    for (auto _ : state) {
        const kv::SeqId id = next++;
        auto alloc = mgr.allocatePrompt(id, prompt);
        benchmark::DoNotOptimize(alloc->cachedTokens);
        mgr.release(id);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KvAllocateRelease);

void
BM_KvPrefixMissThenHit(benchmark::State &state)
{
    // Alternating fresh/shared prompts exercise both lookup paths.
    kv::BlockManagerConfig cfg;
    cfg.numBlocks = 8192;
    cfg.blockSize = 16;
    kv::BlockManager mgr(cfg);
    std::uint64_t salt = 0;
    for (auto _ : state) {
        const kv::TokenChain prompt(
            cfg.blockSize,
            workload::makeTokens(workload::streamId(salt++ % 64, "bm2"),
                                 512));
        const kv::SeqId id = salt + 1000000;
        auto alloc = mgr.allocatePrompt(id, prompt);
        benchmark::DoNotOptimize(alloc->cachedTokens);
        mgr.release(id);
    }
}
BENCHMARK(BM_KvPrefixMissThenHit);

void
BM_PerfModelStep(benchmark::State &state)
{
    llm::PerfModel model(llm::llama31_8b(), llm::singleA100());
    llm::StepWork work;
    work.prefills.push_back({256, 1024});
    for (int i = 0; i < 64; ++i)
        work.decodeContexts.push_back(512 + i * 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.stepCost(work).seconds);
    }
}
BENCHMARK(BM_PerfModelStep);

void
BM_RngStream(benchmark::State &state)
{
    sim::Rng rng(1, "bm", 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.lognormalMean(1.2, 0.5));
}
BENCHMARK(BM_RngStream);

void
BM_SimulatedAgentRequest(benchmark::State &state)
{
    // End-to-end simulator throughput: one full ReAct request through
    // the serving stack per iteration (fresh world each time).
    std::uint64_t seed = 1;
    for (auto _ : state) {
        core::ProbeConfig cfg;
        cfg.agent = agents::AgentKind::ReAct;
        cfg.bench = workload::Benchmark::HotpotQA;
        cfg.engineConfig.model = llm::llama31_8b();
        cfg.engineConfig.node = llm::singleA100();
        cfg.numTasks = 1;
        cfg.seed = seed++;
        const auto r = core::runProbe(cfg);
        benchmark::DoNotOptimize(r.requests.front().result.e2eSeconds);
    }
}
BENCHMARK(BM_SimulatedAgentRequest);

void
BM_TokenStream(benchmark::State &state)
{
    std::uint64_t salt = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            workload::makeTokens(salt++, 1024).size());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TokenStream);

} // namespace

BENCHMARK_MAIN();
