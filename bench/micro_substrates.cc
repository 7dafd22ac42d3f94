/**
 * @file
 * google-benchmark micro benchmarks for the hot substrate paths: the
 * event queue, coroutine scheduling, the KV block manager (allocation,
 * prefix lookups, eviction/demotion churn, restore+hit allocations,
 * decode appends and prompt-chain hashing), one serving-engine step,
 * the roofline perf model, RNG streams, an engine step's SLO
 * observations and trace records, and flight-recorder incident
 * bundles.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/serving_system.hh"
#include "kv/block_manager.hh"
#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "llm/perf_model.hh"
#include "serving/engine.hh"
#include "sim/awaitable.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/strfmt.hh"
#include "sim/task.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"
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

/** allocatePrompt that must succeed: a failure is a bench bug. */
kv::PromptAlloc
mustAllocate(kv::BlockManager &mgr, kv::SeqId id,
             const kv::TokenChain &prompt)
{
    const auto alloc = mgr.allocatePrompt(id, prompt);
    AGENTSIM_ASSERT(alloc.has_value(), "KV bench pool too small for seq %llu",
                    static_cast<unsigned long long>(id));
    return *alloc;
}

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
        benchmark::DoNotOptimize(mustAllocate(mgr, id, prompt).cachedTokens);
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
        benchmark::DoNotOptimize(mustAllocate(mgr, id, prompt).cachedTokens);
        mgr.release(id);
    }
}
BENCHMARK(BM_KvPrefixMissThenHit);

void
BM_KvEvictionChurn(benchmark::State &state)
{
    // A pool of range(0) blocks over DRAM (2x) and NVMe (4x) tiers, fed
    // 8-block prompts that are all distinct within any window the
    // hierarchy can hold (at least 8x the pool's blocks of content
    // against the 7x it holds): once warm, every allocation evicts 8
    // blocks, demotes them into DRAM and sinks DRAM victims into NVMe,
    // whose victims fall out. range(1) picks the eviction order: 0 is
    // LRU (a list), 1 is FIFO (a heap as deep as the pool).
    const std::int64_t blocks = state.range(0);
    kv::BlockManagerConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockSize = 16;
    cfg.hostCacheBlocks = 2 * blocks;
    cfg.nvmeCacheBlocks = 4 * blocks;
    cfg.evictionPolicy = state.range(1) == 0 ? kv::EvictionPolicy::Lru
                                             : kv::EvictionPolicy::Fifo;
    kv::BlockManager mgr(cfg);
    std::vector<kv::TokenChain> prompts;
    const auto n_prompts = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1024, blocks));
    for (std::uint64_t i = 0; i < n_prompts; ++i) {
        prompts.emplace_back(
            cfg.blockSize,
            workload::makeTokens(workload::streamId(i, "churn"), 128));
    }
    kv::SeqId id = 0;
    for (auto _ : state) {
        const kv::TokenChain &prompt = prompts[id % prompts.size()];
        benchmark::DoNotOptimize(mustAllocate(mgr, id, prompt).freshBlocks);
        mgr.release(id++);
    }
    benchmark::DoNotOptimize(mgr.stats().evictions);
    state.SetItemsProcessed(state.iterations());
}
// 16,384 blocks is the same order as the 8B preset's pool on one
// A100-40GB (9,507 blocks, a 14-level heap; 16,384 gives 15).
BENCHMARK(BM_KvEvictionChurn)
    ->ArgNames({"blocks", "fifo"})
    ->ArgsProduct({{256, 16384}, {0, 1}});

void
BM_KvRestoreHitAllocation(benchmark::State &state)
{
    // The allocation that runs the per-allocation invariant check: a
    // prompt whose 4-block head is cached on the GPU (pinned by a live
    // anchor sequence) and whose 4-block tail comes back from DRAM.
    // A pool of range(0) blocks sits over full DRAM (2x) and NVMe (4x)
    // tiers. Each iteration allocates, releases and parks the tail
    // back into DRAM, so the tiers stay full.
    constexpr std::size_t kHalf = 64;
    const std::int64_t blocks = state.range(0);
    kv::BlockManagerConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockSize = 16;
    cfg.hostCacheBlocks = 2 * blocks;
    cfg.nvmeCacheBlocks = 4 * blocks;
    kv::BlockManager mgr(cfg);
    const auto head = workload::makeTokens(workload::streamId(0, "head"),
                                           kHalf);
    std::vector<kv::TokenId> tokens = head;
    const auto tail = workload::makeTokens(workload::streamId(0, "tail"),
                                           kHalf);
    tokens.insert(tokens.end(), tail.begin(), tail.end());
    const kv::TokenChain prompt(cfg.blockSize, tokens);
    kv::SeqId id = 0;
    (void)mustAllocate(mgr, id++, kv::TokenChain(cfg.blockSize, head));

    // Fill both tiers: distinct 8-block chains parked into DRAM, whose
    // victims sink into NVMe.
    const std::int64_t filler = (6 * blocks + 64) / 8;
    for (std::int64_t i = 0; i < filler; ++i) {
        const kv::TokenChain chain(
            cfg.blockSize,
            workload::makeTokens(
                workload::streamId(static_cast<std::uint64_t>(i), "fill"),
                8 * cfg.blockSize));
        mgr.release(mustAllocate(mgr, id++, chain).seq);
        mgr.parkChain(chain);
    }
    mgr.release(mustAllocate(mgr, id++, prompt).seq);
    mgr.parkChain(prompt);
    AGENTSIM_ASSERT(mgr.hostCachedBlocks() == cfg.hostCacheBlocks &&
                        mgr.nvmeCachedBlocks() == cfg.nvmeCacheBlocks,
                    "KV bench tiers not full");

    for (auto _ : state) {
        const kv::PromptAlloc alloc = mustAllocate(mgr, id++, prompt);
        AGENTSIM_ASSERT(alloc.cachedTokens == kHalf &&
                            alloc.restoredTokens == kHalf,
                        "KV bench prompt is not restore+hit");
        benchmark::DoNotOptimize(alloc.freshBlocks);
        mgr.release(alloc.seq);
        mgr.parkChain(prompt);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvRestoreHitAllocation)->ArgName("blocks")->Arg(256)->Arg(16384);

void
BM_KvDecodeAppend(benchmark::State &state)
{
    // One decode step per iteration: each of 64 sequences reads its
    // context length and appends the next token of its output stream,
    // as the engine does per decoder (a counter bump until the block
    // seals). range(0) = 1 addresses them by SeqHandle, 0 by SeqId
    // (one hashed lookup per call). Every 512 steps the batch is
    // released and re-admitted, untimed, so the pool never fills.
    constexpr int kBatch = 64;
    constexpr int kSteps = 512;
    const bool by_handle = state.range(0) == 1;
    kv::BlockManagerConfig cfg;
    cfg.numBlocks = 4096;
    cfg.blockSize = 16;
    kv::BlockManager mgr(cfg);
    std::vector<kv::TokenChain> prompts;
    for (int i = 0; i < kBatch; ++i) {
        prompts.emplace_back(
            cfg.blockSize,
            workload::makeTokens(workload::streamId(i, "decode"), 100));
    }
    std::vector<std::uint64_t> outputs;
    for (int i = 0; i < kBatch; ++i)
        outputs.push_back(workload::streamId(i, "decode.out"));
    std::vector<kv::SeqHandle> seqs(kBatch);
    kv::SeqId next = 1;
    auto admit = [&] {
        for (int i = 0; i < kBatch; ++i)
            seqs[i] = mustAllocate(mgr, next++, prompts[i]).seq;
    };
    admit();
    int step = 0;
    for (auto _ : state) {
        if (step == kSteps) {
            state.PauseTiming();
            for (const kv::SeqHandle &seq : seqs)
                mgr.release(seq);
            admit();
            step = 0;
            state.ResumeTiming();
        }
        const int index = step++;
        std::int64_t context = 0;
        bool ok = true;
        for (int i = 0; i < kBatch; ++i) {
            const kv::SeqHandle &seq = seqs[i];
            if (by_handle) {
                context += mgr.seqTokens(seq);
                ok &= mgr.appendToken(seq, outputs[i], index);
            } else {
                context += mgr.seqTokens(seq.id);
                ok &= mgr.appendToken(seq.id, outputs[i], index);
            }
        }
        AGENTSIM_ASSERT(ok, "KV bench pool too small");
        benchmark::DoNotOptimize(context);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_KvDecodeAppend)->ArgName("handle")->Arg(1)->Arg(0);

void
BM_KvChainAppendMadeTokens(benchmark::State &state)
{
    // A prompt segment made as a token vector, then hashed: the form
    // tests and benches use, and the baseline for the stream form.
    const std::int64_t len = state.range(0);
    std::uint64_t salt = 0;
    for (auto _ : state) {
        kv::TokenChain chain(16);
        chain.append(workload::makeTokens(salt++, len));
        benchmark::DoNotOptimize(chain.blockHashes().data());
    }
    state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_KvChainAppendMadeTokens)
    ->ArgName("tokens")->Arg(40)->Arg(1024)->Arg(16384);

void
BM_KvChainAppendStream(benchmark::State &state)
{
    // The same segment as a stream run, folded in closed form, O(1)
    // per block: how every prompt segment and output is appended.
    const std::int64_t len = state.range(0);
    std::uint64_t salt = 0;
    for (auto _ : state) {
        kv::TokenChain chain(16);
        chain.append(kv::TokenRun{salt++, 0, len});
        benchmark::DoNotOptimize(chain.blockHashes().data());
    }
    state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_KvChainAppendStream)
    ->ArgName("tokens")->Arg(40)->Arg(1024)->Arg(16384);

/** A request that keeps decoding until the bench cancels it. */
sim::Task<serving::GenResult>
decodeUntilCancelled(serving::LlmEngine &engine, kv::TokenChain prompt,
                     std::uint64_t *id)
{
    serving::GenRequest req;
    req.prompt = std::move(prompt);
    req.maxNewTokens = 4096;
    co_return co_await engine.generate(std::move(req), id);
}

/** A client that submits a fresh 72-token prompt for 16 tokens each
 *  time its last request finishes, until @p stop is set. */
sim::Task<void>
churnClient(serving::LlmEngine &engine, std::uint64_t stream,
            const bool *stop, std::uint64_t *id)
{
    for (std::uint64_t k = 0; !*stop; ++k) {
        serving::GenRequest req;
        req.prompt = kv::TokenChain(engine.config().blockSize);
        req.prompt.appendStream(sim::hashCombine(stream, k), 0, 72);
        req.maxNewTokens = 16;
        co_await engine.generate(std::move(req), id);
    }
}

void
BM_EngineDecodeStep(benchmark::State &state)
{
    // One continuous-batching step per iteration with range(0)
    // requests decoding: plan, price, commit. Every 256 steps the
    // batch is cancelled while a step is in flight and resubmitted in
    // the same tick, untimed, so the new requests take the freed slab
    // slots while the in-flight plan still names the old ones.
    // range(1) = 0 submits 64 made tokens, so each output run opens a
    // fresh block; 1 submits a 72-token stream run, so each output run
    // first shares a block with the prompt's run, as an agent's
    // output follows its prompt.
    // range(2) = 1 is the churn arm: range(0) clients each resubmit a
    // 72-token prompt for 16 tokens as soon as the last one finishes,
    // so inside the timed steps requests finish and leave the batch
    // while new prompts prefill and take their first token.
    // ns_per_decoder is the step time per decoded token, in
    // nanoseconds (the console appends a rate counter's "s").
    constexpr int kSteps = 256;
    const auto batch = static_cast<std::size_t>(state.range(0));
    const bool run_prompt = state.range(1) == 1;
    const bool churn = state.range(2) == 1;
    sim::Simulation sim;
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    serving::LlmEngine engine(sim, cfg);
    std::vector<std::uint64_t> ids(batch, 0);
    std::vector<sim::Task<serving::GenResult>> calls;
    auto run_step = [&] {
        const std::int64_t before = engine.stats().steps;
        while (engine.stats().steps == before && sim.step()) {
        }
    };
    std::uint64_t salt = 0;
    auto resubmit = [&] {
        for (const std::uint64_t id : ids)
            engine.cancel(id);
        calls.clear();
        for (std::size_t i = 0; i < batch; ++i) {
            const std::uint64_t stream = workload::streamId(salt++, "step");
            kv::TokenChain prompt(cfg.blockSize);
            if (run_prompt)
                prompt.appendStream(stream, 0, 72);
            else
                prompt.append(workload::makeTokens(stream, 64));
            calls.push_back(
                decodeUntilCancelled(engine, std::move(prompt), &ids[i]));
        }
        // Step until the whole batch decodes.
        for (std::int64_t decoded = 0;
             decoded != static_cast<std::int64_t>(batch);) {
            const std::int64_t before = engine.stats().decodeTokens;
            run_step();
            decoded = engine.stats().decodeTokens - before;
        }
    };
    bool stop = false;
    std::vector<sim::Task<void>> clients;
    if (churn) {
        for (std::size_t i = 0; i < batch; ++i) {
            clients.push_back(churnClient(
                engine, workload::streamId(i, "churn"), &stop, &ids[i]));
        }
        // Untimed, until the clients' finishes and arrivals interleave.
        for (int i = 0; i < kSteps; ++i)
            run_step();
    } else {
        resubmit();
    }
    int step = 0;
    std::int64_t decoded = 0;
    for (auto _ : state) {
        if (!churn && step == kSteps) {
            state.PauseTiming();
            resubmit();
            step = 0;
            state.ResumeTiming();
        }
        const std::int64_t before = engine.stats().decodeTokens;
        run_step();
        decoded += engine.stats().decodeTokens - before;
        benchmark::DoNotOptimize(decoded);
        ++step;
    }
    stop = true;
    for (const std::uint64_t id : ids)
        engine.cancel(id);
    sim.run(); // drained: the engine loop parks and can be destroyed
    state.SetItemsProcessed(decoded);
    state.counters["ns_per_decoder"] = benchmark::Counter(
        static_cast<double>(decoded) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineDecodeStep)
    ->ArgNames({"decoders", "run_prompt", "churn"})
    ->Args({8, 0, 0})
    ->Args({64, 0, 0})
    ->Args({64, 1, 0})
    ->Args({64, 1, 1});

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
        core::ServeConfig cfg;
        cfg.closedLoop = true;
        cfg.agent = agents::AgentKind::ReAct;
        cfg.bench = workload::Benchmark::HotpotQA;
        cfg.engineConfig.model = llm::llama31_8b();
        cfg.engineConfig.node = llm::singleA100();
        cfg.numRequests = 1;
        cfg.seed = seed++;
        const auto r = core::runServing(cfg);
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

void
BM_SloObserveStep(benchmark::State &state)
{
    // One engine step's TBT observations per iteration: range(0)
    // decoders that all waited the same 20 ms step, every third step
    // 300 ms, over the default 250 ms target, so every window alerts.
    // range(1) = 1 records them as one weighted observation, as the
    // engine does; 0 records them one by one. Alert warnings are
    // silenced.
    const std::int64_t decoders = state.range(0);
    const bool weighted = state.range(1) == 1;
    const sim::LogLevel saved = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Error);
    telemetry::SloTracker slo(telemetry::SloConfig{});
    const sim::Tick step = sim::fromSeconds(0.02);
    sim::Tick now = 0;
    std::int64_t i = 0;
    for (auto _ : state) {
        const double wall = ++i % 3 == 0 ? 0.3 : 0.02;
        if (weighted) {
            slo.observe(telemetry::SloMetric::Tbt, now, wall, decoders);
        } else {
            for (std::int64_t d = 0; d < decoders; ++d)
                slo.observe(telemetry::SloMetric::Tbt, now, wall);
        }
        now += step;
    }
    sim::setLogLevel(saved);
    benchmark::DoNotOptimize(slo.alertsFired());
    state.SetItemsProcessed(state.iterations() * decoders);
}
BENCHMARK(BM_SloObserveStep)
    ->ArgNames({"decoders", "weighted"})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void
BM_TraceEngineStep(benchmark::State &state)
{
    // The records one engine step adds to the trace: the step span,
    // its kv_blocks and batch counters, a request's decode phase, and
    // a request lane named on every step (new every 16th step).
    // range(0) = 1 names the hot records by TraceName id and the lane
    // only when new, as the engine does; 0 passes every name as a
    // string and formats every lane name. The sink is cleared, untimed,
    // once it holds 262,144 records.
    using telemetry::TraceArg;
    using telemetry::TraceArgs;
    using telemetry::TraceName;
    using telemetry::TracePid;
    const bool by_id = state.range(0) == 1;
    telemetry::TraceSink sink;
    const sim::Tick step = sim::fromSeconds(0.005);
    sim::Tick t = 0;
    std::int64_t i = 0;
    for (auto _ : state) {
        if (sink.eventCount() >= 4 * 65'536) {
            state.PauseTiming();
            sink.clear();
            state.ResumeTiming();
        }
        const auto lane = static_cast<std::uint64_t>(i / 16);
        const std::int64_t running = 8 + i % 24;
        const TraceArgs step_args{
            TraceArg::integer("prefill_tokens", (i * 37) % 512),
            TraceArg::integer("decode_tokens", running),
            TraceArg::integer("running", running),
            TraceArg::integer("waiting", i % 5)};
        const TraceArgs kv_args{TraceArg::integer("used", 1000 + i % 700),
                                TraceArg::integer("free", 3000 - i % 700)};
        const TraceArgs batch_args{TraceArg::integer("running", running),
                                   TraceArg::integer("waiting", i % 5)};
        auto lane_name = [lane] {
            return sim::strfmt("req %llu",
                               static_cast<unsigned long long>(lane));
        };
        if (by_id) {
            sink.threadName(TracePid::kRequests, lane, lane_name);
            sink.complete(TracePid::kRequests, lane, TraceName::Decode,
                          "request", t, t + step);
            sink.complete(TracePid::kEngine, 1, TraceName::Step, "engine",
                          t, t + step, step_args);
            sink.counter(TracePid::kEngine, TraceName::KvBlocks, t + step,
                         kv_args);
            sink.counter(TracePid::kEngine, TraceName::Batch, t + step,
                         batch_args);
        } else {
            sink.threadName(TracePid::kRequests, lane, lane_name());
            sink.complete(TracePid::kRequests, lane, "decode", "request", t,
                          t + step);
            sink.complete(TracePid::kEngine, 1, "step", "engine", t,
                          t + step, step_args);
            sink.counter(TracePid::kEngine, "kv_blocks", t + step, kv_args);
            sink.counter(TracePid::kEngine, "batch", t + step, batch_args);
        }
        t += step;
        ++i;
    }
    benchmark::DoNotOptimize(sink.eventCount());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEngineStep)->ArgName("by_id")->Arg(0)->Arg(1);

void
BM_TraceSinkAppend(benchmark::State &state)
{
    // Appends to a log that keeps its chunks: the sink is filled once
    // before timing and cleared, untimed, each time it holds 65,536
    // records, so every append lands in memory the log already owns.
    // The records cycle through four shapes: a step span with four
    // integer args, a two-arg counter, an argless instant, and an
    // async begin with text, bool and real args.
    using telemetry::TraceArg;
    using telemetry::TraceName;
    using telemetry::TracePid;
    constexpr std::size_t kRecords = 65'536;
    telemetry::TraceSink sink;
    const TraceName span_name = sink.intern("tool_call");
    std::int64_t i = 0;
    auto append = [&] {
        const sim::Tick t = i * 100;
        switch (i % 4) {
          case 0:
            sink.complete(TracePid::kEngine, 1, TraceName::Step, "engine", t,
                          t + 100,
                          {TraceArg::integer("prefill_tokens", i % 512),
                           TraceArg::integer("decode_tokens", i % 31),
                           TraceArg::integer("running", i % 24),
                           TraceArg::integer("waiting", i % 5)});
            break;
          case 1:
            sink.counter(TracePid::kEngine, TraceName::KvBlocks, t,
                         {TraceArg::integer("used", i % 700),
                          TraceArg::integer("free", 3000 - i % 700)});
            break;
          case 2:
            sink.instant(TracePid::kRequests, static_cast<std::uint64_t>(i),
                         "preempt", "request", t);
            break;
          default:
            sink.asyncBegin(TracePid::kSpans, static_cast<std::uint64_t>(i),
                            span_name, "span", t,
                            {TraceArg::text("kind", "tool_call"),
                             TraceArg::boolean("critical_path", i % 8 == 3),
                             TraceArg::real("share", 0.25)});
            break;
        }
        ++i;
    };
    while (sink.eventCount() < kRecords)
        append();
    sink.clear();
    for (auto _ : state) {
        if (sink.eventCount() == kRecords) {
            state.PauseTiming();
            sink.clear();
            state.ResumeTiming();
        }
        append();
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(sink.eventCount());
    state.SetItemsProcessed(state.iterations());
    // The log stores whole chunks of records and nothing else.
    state.counters["bytes_per_event"] = sizeof(telemetry::TraceRecord);
}
BENCHMARK(BM_TraceSinkAppend);

/**
 * Fill @p sink with about @p records records shaped like an engine's
 * log: per 5 ms step one "step" span and its kv_blocks and batch
 * counters, a request lane named every 16 steps. @return the last
 * step's end.
 */
sim::Tick
fillEngineTrace(telemetry::TraceSink &sink, std::size_t records)
{
    using telemetry::TraceArg;
    using telemetry::TracePid;
    sink.processName(TracePid::kEngine, "LLM engine");
    sink.threadName(TracePid::kEngine, 1, "iterations");
    sink.processName(TracePid::kRequests, "requests");
    const sim::Tick step = sim::fromSeconds(0.005);
    sim::Tick t = 0;
    for (std::int64_t i = 0; sink.eventCount() < records; ++i, t += step) {
        if (i % 16 == 0) {
            sink.threadName(TracePid::kRequests,
                            static_cast<std::uint64_t>(i / 16),
                            "req " + std::to_string(i / 16));
        }
        const std::int64_t running = 8 + i % 24;
        sink.complete(TracePid::kEngine, 1, "step", "engine", t, t + step,
                      {TraceArg::integer("prefill_tokens", (i * 37) % 512),
                       TraceArg::integer("decode_tokens", running),
                       TraceArg::integer("running", running),
                       TraceArg::integer("waiting", i % 5)});
        sink.counter(TracePid::kEngine, "kv_blocks", t + step,
                     {TraceArg::integer("used", 1000 + i % 700),
                      TraceArg::integer("free", 3000 - i % 700)});
        sink.counter(TracePid::kEngine, "batch", t + step,
                     {TraceArg::integer("running", running),
                      TraceArg::integer("waiting", i % 5)});
    }
    return t;
}

void
BM_FlightRecorderDump(benchmark::State &state)
{
    // Four incident bundles from a ~300k-record engine log with 256
    // sampled series and 512 span completions, dumped twice per
    // iteration under the same names: the second pass rewrites the
    // first's files, as a harness reusing its incident dir does.
    constexpr int kBundles = 4;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "agentsim_bm_dump";
    telemetry::TraceSink sink;
    const sim::Tick end = fillEngineTrace(sink, 300'000);
    telemetry::TimeSeriesStore ts;
    for (sim::Tick t = 0; t <= end; t += sim::fromSeconds(0.5)) {
        for (int s = 0; s < 256; ++s) {
            const std::string name =
                s % 2 == 0 ? "series_" + std::to_string(s)
                           : "labelled{node=\"" + std::to_string(s) + "\"}";
            ts.record(name, t, static_cast<double>(t % 9973) / (s + 1));
        }
    }
    telemetry::FlightRecorder recorder;
    auto reset = [&] {
        recorder.clear();
        recorder.setConfig({.incidentDir = dir.string(),
                            .debounceSeconds = 0.0,
                            .diskBudgetBytes = 0});
        recorder.attachTimeSeries(&ts);
        sink.attachRecorder(&recorder);
        for (int i = 0; i < 512; ++i) {
            telemetry::SpanCompletion sc;
            sc.requestKey = static_cast<std::uint64_t>(i);
            sc.workflow = i % 2 == 0 ? "HotpotQA/ReAct" : "chat";
            sc.latencySeconds = 1.0 + i % 17;
            sc.start = end - sim::fromSeconds(sc.latencySeconds + i % 60);
            sc.end = sc.start + sim::fromSeconds(sc.latencySeconds);
            recorder.noteSpanCompletion(sc);
        }
    };
    std::int64_t bytes = 0;
    for (auto _ : state) {
        for (int pass = 0; pass < 2; ++pass) {
            state.PauseTiming();
            reset();
            state.ResumeTiming();
            for (int b = 0; b < kBundles; ++b) {
                recorder.trigger(telemetry::IncidentTrigger::SloBurn,
                                 end - sim::fromSeconds(
                                           10.0 * (kBundles - 1 - b)),
                                 "bench");
            }
            bytes += recorder.bytesWritten();
        }
    }
    if (recorder.incidentsDumped() != kBundles)
        state.SkipWithError("a bundle was not written");
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations() * 2 * kBundles);
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_FlightRecorderDump)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
