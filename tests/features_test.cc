/**
 * @file
 * Tests for the optimization features built from the paper's
 * keytakeaway proposals: KV eviction policies, the host-memory spill
 * tier, admission scheduling policies, speculative tool invocation,
 * and cluster routing.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <span>

#include "agents/workflows.hh"
#include "core/cluster.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/table.hh"
#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "serving/disagg.hh"
#include "kv/block_manager.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using agents::AgentKind;
using kv::BlockManager;
using kv::BlockManagerConfig;
using kv::EvictionPolicy;
using kv::TokenId;
using workload::Benchmark;

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

// ---------------------------------------------------------------
// Eviction policy.
// ---------------------------------------------------------------

TEST(EvictionPolicy, FifoEvictsFirstPublishedDespiteReuse)
{
    BlockManagerConfig cfg;
    cfg.numBlocks = 8;
    cfg.blockSize = 16;
    cfg.evictionPolicy = EvictionPolicy::Fifo;
    BlockManager mgr(cfg);

    // Publish A (4 blocks), then B (4 blocks); free both.
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 64))).has_value());
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(1000, 64))).has_value());
    mgr.release(1);
    mgr.release(2);

    // Touch A again (re-reference + release): under LRU this would
    // protect A; under FIFO it does not.
    auto again = mgr.allocatePrompt(3, chainOf(mgr, tokenRange(0, 64)));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->cachedTokens, 64);
    mgr.release(3);

    // Allocate fresh content requiring 4 evictions: FIFO removes A's
    // blocks (published first), so A misses afterwards but B hits.
    ASSERT_TRUE(
        mgr.allocatePrompt(4, chainOf(mgr, tokenRange(2000, 64))).has_value());
    auto a_alloc = mgr.allocatePrompt(5, chainOf(mgr, tokenRange(0, 64)));
    // A was evicted: no hits (0 cached) — pool may be too tight to
    // even allocate; both are "A lost its cache" outcomes.
    if (a_alloc.has_value()) {
        EXPECT_EQ(a_alloc->cachedTokens, 0);
    }
    mgr.checkInvariants();
}

TEST(EvictionPolicy, LruProtectsRecentlyUsed)
{
    BlockManagerConfig cfg;
    cfg.numBlocks = 8;
    cfg.blockSize = 16;
    cfg.evictionPolicy = EvictionPolicy::Lru;
    BlockManager mgr(cfg);

    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 64))).has_value());
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(1000, 64))).has_value());
    mgr.release(1);
    mgr.release(2);
    // Touch A: now B is the LRU victim.
    auto again = mgr.allocatePrompt(3, chainOf(mgr, tokenRange(0, 64)));
    ASSERT_TRUE(again.has_value());
    mgr.release(3);

    ASSERT_TRUE(
        mgr.allocatePrompt(4, chainOf(mgr, tokenRange(2000, 64))).has_value());
    mgr.release(4);
    // A survived the eviction wave.
    auto a_alloc = mgr.allocatePrompt(5, chainOf(mgr, tokenRange(0, 64)));
    ASSERT_TRUE(a_alloc.has_value());
    EXPECT_EQ(a_alloc->cachedTokens, 64);
    mgr.checkInvariants();
}

// ---------------------------------------------------------------
// Host-memory spill tier.
// ---------------------------------------------------------------

TEST(HostTier, EvictedBlocksRestoreFromHost)
{
    BlockManagerConfig cfg;
    cfg.numBlocks = 4;
    cfg.blockSize = 16;
    cfg.hostCacheBlocks = 64;
    BlockManager mgr(cfg);

    const auto prompt_a = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, chainOf(mgr, prompt_a)).has_value());
    mgr.release(1);
    // Force A's eviction with fresh content.
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(1000, 64))).has_value());
    mgr.release(2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 4); // A spilled to host

    // A comes back as restores, not recompute misses.
    auto alloc = mgr.allocatePrompt(3, chainOf(mgr, prompt_a));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 0);
    EXPECT_EQ(alloc->restoredTokens, 64);
    EXPECT_EQ(alloc->reusedTokens(), 64);
    EXPECT_EQ(mgr.stats().restoredTokens, 64);
    mgr.checkInvariants();
}

TEST(HostTier, DisabledMeansNoRestores)
{
    BlockManagerConfig cfg;
    cfg.numBlocks = 4;
    cfg.blockSize = 16;
    cfg.hostCacheBlocks = 0;
    BlockManager mgr(cfg);
    ASSERT_TRUE(
        mgr.allocatePrompt(1, chainOf(mgr, tokenRange(0, 64))).has_value());
    mgr.release(1);
    ASSERT_TRUE(
        mgr.allocatePrompt(2, chainOf(mgr, tokenRange(1000, 64))).has_value());
    mgr.release(2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    auto alloc = mgr.allocatePrompt(3, chainOf(mgr, tokenRange(0, 64)));
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 0);
}

TEST(HostTier, CapacityIsBounded)
{
    BlockManagerConfig cfg;
    cfg.numBlocks = 4;
    cfg.blockSize = 16;
    cfg.hostCacheBlocks = 6;
    BlockManager mgr(cfg);
    // Cycle many distinct prompts through the tiny GPU pool.
    for (kv::SeqId s = 1; s <= 10; ++s) {
        ASSERT_TRUE(
            mgr.allocatePrompt(s, chainOf(mgr, tokenRange(s * 10000, 64)))
                .has_value());
        mgr.release(s);
    }
    EXPECT_LE(mgr.hostCachedBlocks(), 6);
    mgr.checkInvariants();
}

TEST(HostTier, EngineChargesTransferTime)
{
    // Two engines with identical tiny GPU pools; only one has a host
    // tier. After thrashing, the host-tier engine restores instead of
    // recomputing, cutting prefill work.
    auto make_cfg = [](std::int64_t host_blocks) {
        serving::EngineConfig cfg;
        cfg.model = llm::llama31_8b();
        cfg.node = llm::singleA100();
        cfg.kvPoolBytes = 64 * 16 * cfg.model.kvBytesPerToken();
        cfg.hostCacheBlocks = host_blocks;
        return cfg;
    };

    auto run = [&](std::int64_t host_blocks) {
        sim::Simulation sim;
        serving::LlmEngine engine(sim, make_cfg(host_blocks));
        const auto a = workload::makeTokens(7, 800);
        const auto b = workload::makeTokens(8, 800);
        // a, then b (evicting a), then a again.
        for (const auto *p : {&a, &b, &a}) {
            serving::GenRequest req;
            req.prompt =
                kv::TokenChain(engine.config().blockSize, *p);
            req.maxNewTokens = 4;
            auto t = engine.generate(std::move(req));
            sim.run();
            (void)t.result();
        }
        return engine.cacheStats();
    };

    const auto without = run(0);
    const auto with = run(100000);
    EXPECT_EQ(without.restoredTokens, 0);
    // Most of the evicted 800-token prompt comes back from the host
    // tier (a few blocks survive on the GPU as ordinary hits).
    EXPECT_GT(with.restoredTokens, 400);
}

// ---------------------------------------------------------------
// Admission scheduling policy.
// ---------------------------------------------------------------

TEST(Scheduler, ShortestPromptFirstReordersQueue)
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.schedulerPolicy = serving::SchedulerPolicy::ShortestPromptFirst;
    cfg.maxRunningSeqs = 1; // force queueing

    sim::Simulation sim;
    serving::LlmEngine engine(sim, cfg);

    auto submit = [&](std::uint64_t stream, std::int64_t len) {
        serving::GenRequest req;
        req.prompt = kv::TokenChain(engine.config().blockSize,
                                    workload::makeTokens(stream, len));
        req.maxNewTokens = 8;
        return engine.generate(std::move(req));
    };
    // Long request first occupies the engine; then a long and a short
    // wait. SPF admits the short one next despite arrival order.
    auto first = submit(1, 2000);
    auto long_wait = submit(2, 2000);
    auto short_wait = submit(3, 64);
    sim.run();
    const auto r_long = long_wait.result();
    const auto r_short = short_wait.result();
    (void)first.result();
    EXPECT_LT(r_short.finishTick, r_long.finishTick);
}

TEST(Scheduler, FcfsPreservesArrivalOrder)
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.schedulerPolicy = serving::SchedulerPolicy::Fcfs;
    cfg.maxRunningSeqs = 1;

    sim::Simulation sim;
    serving::LlmEngine engine(sim, cfg);
    auto submit = [&](std::uint64_t stream, std::int64_t len) {
        serving::GenRequest req;
        req.prompt = kv::TokenChain(engine.config().blockSize,
                                    workload::makeTokens(stream, len));
        req.maxNewTokens = 8;
        return engine.generate(std::move(req));
    };
    auto first = submit(1, 2000);
    auto long_wait = submit(2, 2000);
    auto short_wait = submit(3, 64);
    sim.run();
    (void)first.result();
    EXPECT_GT(short_wait.result().finishTick,
              long_wait.result().finishTick);
}

// ---------------------------------------------------------------
// Speculative tool invocation.
// ---------------------------------------------------------------

TEST(SpeculativeTools, ReducesLatencyOnSlowTools)
{
    auto run = [](bool speculative) {
        core::ProbeConfig cfg;
        cfg.agent = AgentKind::ReAct;
        cfg.bench = Benchmark::HotpotQA; // ~1.2 s tool calls
        cfg.engineConfig = core::enginePreset8b();
        cfg.agentConfig.speculativeTools = speculative;
        cfg.numTasks = 20;
        cfg.seed = 77;
        return core::runProbe(cfg);
    };
    const auto off = run(false);
    const auto on = run(true);
    EXPECT_LT(on.e2eSeconds().mean(), off.e2eSeconds().mean());
    // Wrong predictions cost extra tool calls.
    EXPECT_GT(on.meanToolCalls(), off.meanToolCalls());
}

TEST(SpeculativeTools, OverlapAppearsInTimeline)
{
    core::ProbeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agentConfig.speculativeTools = true;
    cfg.numTasks = 10;
    cfg.seed = 78;
    const auto r = core::runProbe(cfg);
    double overlap = 0.0;
    for (const auto &req : r.requests)
        overlap += req.result.latency.overlapSeconds;
    EXPECT_GT(overlap, 0.0);
}

// ---------------------------------------------------------------
// Cluster routing.
// ---------------------------------------------------------------

core::ClusterConfig
smallCluster(core::RoutePolicy policy)
{
    core::ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = policy;
    core::WorkloadSpec agent;
    agent.agent = AgentKind::ReAct;
    agent.bench = Benchmark::WebShop;
    agent.weight = 1.0;
    cfg.mix.push_back(agent);
    core::WorkloadSpec agent2;
    agent2.agent = AgentKind::ReAct;
    agent2.bench = Benchmark::HotpotQA;
    agent2.weight = 1.0;
    cfg.mix.push_back(agent2);
    core::WorkloadSpec chat;
    chat.chatbot = true;
    chat.weight = 1.0;
    cfg.mix.push_back(chat);
    cfg.qps = 2.0;
    cfg.numRequests = 60;
    cfg.seed = 4;
    return cfg;
}

TEST(Cluster, AllPoliciesCompleteEveryRequest)
{
    for (auto policy : {core::RoutePolicy::RoundRobin,
                        core::RoutePolicy::LeastLoaded,
                        core::RoutePolicy::CacheAffinity}) {
        const auto r = core::runCluster(smallCluster(policy));
        EXPECT_EQ(r.completed, 60)
            << core::routePolicyName(policy);
        int assigned = 0;
        for (const auto &node : r.nodes)
            assigned += node.requests;
        EXPECT_EQ(assigned, 60);
        EXPECT_GT(r.throughputQps(), 0.0);
    }
}

TEST(Cluster, RoundRobinSpreadsEvenly)
{
    const auto r =
        core::runCluster(smallCluster(core::RoutePolicy::RoundRobin));
    for (const auto &node : r.nodes)
        EXPECT_EQ(node.requests, 20);
}

TEST(Cluster, AffinityConcentratesWorkflows)
{
    // With an agents-only mix, affinity pins each workflow to a home
    // node, so the per-node request distribution is much more skewed
    // than round-robin's even spread.
    auto cfg = smallCluster(core::RoutePolicy::CacheAffinity);
    cfg.mix.pop_back(); // drop the chatbot component
    cfg.numRequests = 90;
    const auto affinity = core::runCluster(cfg);

    cfg.policy = core::RoutePolicy::RoundRobin;
    const auto rr = core::runCluster(cfg);

    auto spread = [](const core::ClusterResult &r) {
        int lo = r.nodes.front().requests;
        int hi = lo;
        for (const auto &node : r.nodes) {
            lo = std::min(lo, node.requests);
            hi = std::max(hi, node.requests);
        }
        return hi - lo;
    };
    EXPECT_GT(spread(affinity), spread(rr));
    EXPECT_EQ(affinity.completed, 90);
}

// ---------------------------------------------------------------
// Self-Consistency extension.
// ---------------------------------------------------------------

TEST(SelfConsistency, StructureAndParallelism)
{
    core::ProbeConfig cfg;
    cfg.agent = AgentKind::SelfConsistency;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agentConfig.scSamples = 5;
    cfg.numTasks = 5;
    cfg.seed = 13;
    const auto r = core::runProbe(cfg);
    for (const auto &req : r.requests) {
        EXPECT_EQ(req.result.llmCalls, 5);
        EXPECT_EQ(req.result.toolCalls, 0);
    }
    // Parallel samples: e2e is far below 5x a single CoT rationale.
    core::ProbeConfig cot = cfg;
    cot.agent = AgentKind::CoT;
    const auto rc = core::runProbe(cot);
    EXPECT_LT(r.e2eSeconds().mean(),
              3.0 * rc.e2eSeconds().mean());
}

TEST(SelfConsistency, SamplesShareThePromptPrefix)
{
    core::ProbeConfig cfg;
    cfg.agent = AgentKind::SelfConsistency;
    cfg.bench = Benchmark::Math;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agentConfig.scSamples = 8;
    cfg.numTasks = 3;
    cfg.seed = 14;
    const auto r = core::runProbe(cfg);
    // With identical prompts, most of each request's prompt tokens
    // come from the prefix cache.
    double cached = 0.0;
    double total = 0.0;
    for (const auto &req : r.requests) {
        cached += static_cast<double>(
            req.result.cachedPromptTokensTotal);
        total += static_cast<double>(req.result.promptTokensTotal);
    }
    EXPECT_GT(cached / total, 0.5);
}

TEST(SelfConsistency, MoreSamplesNeverHurtMuch)
{
    auto accuracy = [](int n) {
        core::ProbeConfig cfg;
        cfg.agent = AgentKind::SelfConsistency;
        cfg.bench = Benchmark::Math;
        cfg.engineConfig = core::enginePreset8b();
        cfg.agentConfig.scSamples = n;
        cfg.numTasks = 60;
        cfg.seed = 15;
        return core::runProbe(cfg).accuracy();
    };
    const double few = accuracy(3);
    const double many = accuracy(16);
    EXPECT_GE(many, few);
}

TEST(SelfConsistency, SupportsOnlyLanguageOnlyBenchmarks)
{
    EXPECT_FALSE(agents::agentSupports(AgentKind::SelfConsistency,
                                       Benchmark::WebShop));
    EXPECT_TRUE(agents::agentSupports(AgentKind::SelfConsistency,
                                      Benchmark::Math));
}

// ---------------------------------------------------------------
// Static-search extensions (Tree-of-Thoughts, Best-of-N).
// ---------------------------------------------------------------

TEST(StaticSearch, TreeOfThoughtsStructure)
{
    core::ProbeConfig cfg;
    cfg.agent = AgentKind::TreeOfThoughts;
    cfg.bench = Benchmark::Math;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agentConfig.latsChildren = 3;
    cfg.numTasks = 6;
    cfg.seed = 41;
    const auto r = core::runProbe(cfg);
    for (const auto &req : r.requests) {
        EXPECT_EQ(req.result.toolCalls, 0); // tool-free search
        // At least one level of (propose + evaluate) plus the answer.
        EXPECT_GE(req.result.llmCalls, 3 + 3 + 1);
    }
}

TEST(StaticSearch, BestOfNIssuesSamplesAndVerifiers)
{
    core::ProbeConfig cfg;
    cfg.agent = AgentKind::BestOfN;
    cfg.bench = Benchmark::Math;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agentConfig.scSamples = 4;
    cfg.numTasks = 6;
    cfg.seed = 42;
    const auto r = core::runProbe(cfg);
    for (const auto &req : r.requests) {
        EXPECT_EQ(req.result.llmCalls, 4 + 4); // samples + verifiers
        EXPECT_EQ(req.result.toolCalls, 0);
    }
}

TEST(StaticSearch, ToolLessMethodsStayBelowLatsOnKnowledgeTasks)
{
    auto accuracy = [](AgentKind agent) {
        core::ProbeConfig cfg;
        cfg.agent = agent;
        cfg.bench = Benchmark::HotpotQA;
        cfg.engineConfig = core::enginePreset8b();
        cfg.numTasks = 50;
        cfg.seed = 43;
        return core::runProbe(cfg).accuracy();
    };
    const double lats = accuracy(AgentKind::Lats);
    EXPECT_GT(lats, accuracy(AgentKind::TreeOfThoughts) + 0.2);
    EXPECT_GT(lats, accuracy(AgentKind::BestOfN) + 0.2);
    EXPECT_GT(lats, accuracy(AgentKind::SelfConsistency) + 0.2);
}

// ---------------------------------------------------------------
// Actor-critic multi-agent extension.
// ---------------------------------------------------------------

TEST(ActorCritic, StructureLiesBetweenReactAndReflexion)
{
    auto probe = [](AgentKind agent) {
        core::ProbeConfig cfg;
        cfg.agent = agent;
        cfg.bench = Benchmark::HotpotQA;
        cfg.engineConfig = core::enginePreset8b();
        cfg.numTasks = 40;
        cfg.seed = 31;
        return core::runProbe(cfg);
    };
    const auto react = probe(AgentKind::ReAct);
    const auto duo = probe(AgentKind::ActorCritic);
    // The duo adds critic calls on top of actor trials.
    EXPECT_GT(duo.meanLlmCalls(), react.meanLlmCalls());
    EXPECT_GT(duo.e2eSeconds().mean(), react.e2eSeconds().mean());
    EXPECT_GE(duo.accuracy(), react.accuracy());
}

TEST(ActorCritic, SupportedOnAllAgenticBenchmarks)
{
    for (Benchmark b : workload::agenticBenchmarks) {
        EXPECT_TRUE(
            agents::agentSupports(AgentKind::ActorCritic, b));
    }
    EXPECT_FALSE(agents::agentSupports(AgentKind::ActorCritic,
                                       Benchmark::ShareGpt));
}

TEST(ActorCritic, RespectsRoundBudget)
{
    core::ProbeConfig cfg;
    cfg.agent = AgentKind::ActorCritic;
    cfg.bench = Benchmark::WebShop;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agentConfig.maxReflections = 1; // at most 2 rounds
    cfg.agentConfig.maxIterations = 3;
    cfg.numTasks = 10;
    cfg.seed = 32;
    const auto r = core::runProbe(cfg);
    for (const auto &req : r.requests) {
        EXPECT_LE(req.result.reflectionsUsed, 1);
        // <= 2 actor trials x (3 steps) + 2 critic reviews +
        // 1 feedback.
        EXPECT_LE(req.result.llmCalls, 2 * 3 + 2 + 1);
    }
}

// ---------------------------------------------------------------
// Program-aware (least-attained-service) scheduling.
// ---------------------------------------------------------------

TEST(LasScheduling, ProtectsShortProgramsInMixedTraffic)
{
    auto run = [](serving::SchedulerPolicy policy) {
        core::ClusterConfig cfg;
        cfg.numNodes = 1;
        cfg.engineConfig = core::enginePreset8b();
        cfg.engineConfig.schedulerPolicy = policy;
        cfg.engineConfig.maxRunningSeqs = 6;
        core::WorkloadSpec chat;
        chat.chatbot = true;
        chat.weight = 2.0;
        cfg.mix.push_back(chat);
        core::WorkloadSpec agent;
        agent.agent = AgentKind::ReAct;
        agent.bench = Benchmark::HotpotQA;
        agent.weight = 1.0;
        cfg.mix.push_back(agent);
        cfg.qps = 2.0;
        cfg.numRequests = 90;
        cfg.seed = 51;
        return core::runCluster(cfg);
    };
    const auto fcfs = run(serving::SchedulerPolicy::Fcfs);
    const auto las =
        run(serving::SchedulerPolicy::LeastAttainedService);
    ASSERT_EQ(las.completed, 90);
    // Chat (single-call sessions with zero attained service) gets
    // ahead of long agent programs.
    EXPECT_LT(las.perWorkloadSeconds[0].percentile(95),
              fcfs.perWorkloadSeconds[0].percentile(95));
}

TEST(LasScheduling, EquivalentToFcfsForFreshSessions)
{
    // With single-call sessions only, every session has zero attained
    // service, so LAS degenerates to arrival order.
    auto run = [](serving::SchedulerPolicy policy) {
        core::ServeConfig cfg;
        cfg.chatbot = true;
        cfg.engineConfig = core::enginePreset8b();
        cfg.engineConfig.schedulerPolicy = policy;
        cfg.engineConfig.maxRunningSeqs = 4;
        cfg.qps = 3.0;
        cfg.numRequests = 40;
        cfg.seed = 52;
        return core::runServing(cfg);
    };
    const auto fcfs = run(serving::SchedulerPolicy::Fcfs);
    const auto las =
        run(serving::SchedulerPolicy::LeastAttainedService);
    EXPECT_DOUBLE_EQ(fcfs.p95(), las.p95());
    EXPECT_DOUBLE_EQ(fcfs.makespanSeconds, las.makespanSeconds);
}

// ---------------------------------------------------------------
// Disaggregated prefill/decode serving.
// ---------------------------------------------------------------

sim::Task<serving::GenResult>
disaggSubmit(serving::DisaggServer &server,
             std::vector<kv::TokenId> prompt, std::int64_t out)
{
    serving::GenRequest req;
    req.prompt = kv::TokenChain(
        server.prefillEngine().config().blockSize, prompt);
    req.maxNewTokens = out;
    co_return co_await server.generate(std::move(req));
}

TEST(Disagg, SplitsPhasesAcrossNodes)
{
    sim::Simulation sim;
    serving::DisaggConfig cfg;
    cfg.prefillNode = core::enginePreset8b();
    cfg.decodeNode = core::enginePreset8b();
    serving::DisaggServer server(sim, cfg);

    auto t = disaggSubmit(server, workload::makeTokens(3, 1200), 40);
    sim.run();
    const auto r = t.result();
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.tokens.size(), 40u);
    // The prefill node did the prompt work; the decode node's prefill
    // was a cache hit on the transferred KV.
    EXPECT_GT(server.prefillEngine().stats().prefillTokens, 1100);
    EXPECT_LT(server.decodeEngine().stats().prefillTokens, 100);
    EXPECT_GE(server.decodeEngine().stats().decodeTokens, 38);
    EXPECT_GT(r.ttftSeconds, 0.0);
    EXPECT_LT(r.ttftSeconds, r.totalSeconds);
}

TEST(Disagg, OutputMatchesAggregatedEngine)
{
    // Disaggregation must not change generated content... but note
    // tokens are a function of (engine seed, request id, index), and
    // the two architectures assign different request ids. Instead
    // check the structural guarantees: deterministic across runs and
    // correct lengths.
    auto run = [] {
        sim::Simulation sim;
        serving::DisaggConfig cfg;
        cfg.prefillNode = core::enginePreset8b();
        cfg.decodeNode = core::enginePreset8b();
        serving::DisaggServer server(sim, cfg);
        auto t =
            disaggSubmit(server, workload::makeTokens(4, 500), 24);
        sim.run();
        return t.result();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.tokens, b.tokens);
    EXPECT_DOUBLE_EQ(a.totalSeconds, b.totalSeconds);
}

TEST(Disagg, SingleTokenRequestSkipsDecodeNode)
{
    sim::Simulation sim;
    serving::DisaggConfig cfg;
    cfg.prefillNode = core::enginePreset8b();
    cfg.decodeNode = core::enginePreset8b();
    serving::DisaggServer server(sim, cfg);
    auto t = disaggSubmit(server, workload::makeTokens(5, 300), 1);
    sim.run();
    EXPECT_EQ(t.result().tokens.size(), 1u);
    EXPECT_EQ(server.decodeEngine().stats().requestsSubmitted, 0);
}

TEST(Disagg, TransferTimeScalesWithPrompt)
{
    // Slower interconnect -> longer end-to-end for the same request.
    auto run = [](double bw) {
        sim::Simulation sim;
        serving::DisaggConfig cfg;
        cfg.prefillNode = core::enginePreset8b();
        cfg.decodeNode = core::enginePreset8b();
        cfg.interconnectBandwidth = bw;
        serving::DisaggServer server(sim, cfg);
        auto t =
            disaggSubmit(server, workload::makeTokens(6, 2000), 16);
        sim.run();
        return t.result().totalSeconds;
    };
    const double fast = run(200e9);
    const double slow = run(2e9);
    EXPECT_GT(slow, fast + 0.05);
}

// Regression (KV wire accounting): the decode-side preload reports
// how many blocks actually landed, and only those are charged to the
// interconnect. A second identical request finds the prefix already
// resident on the decode node and pays (nearly) nothing — pre-fix the
// caller billed the full prompt every time.
TEST(Disagg, WarmDecodePrefixSkipsWireTransfer)
{
    sim::Simulation sim;
    serving::DisaggConfig cfg;
    cfg.prefillNode = core::enginePreset8b();
    cfg.decodeNode = core::enginePreset8b();
    cfg.interconnectBandwidth = 2e9; // slow: the transfer dominates
    serving::DisaggServer server(sim, cfg);

    auto a = disaggSubmit(server, workload::makeTokens(7, 2000), 16);
    sim.run();
    const auto cold = a.result();
    ASSERT_FALSE(cold.failed);
    auto b = disaggSubmit(server, workload::makeTokens(7, 2000), 16);
    sim.run();
    const auto warm = b.result();
    ASSERT_FALSE(warm.failed);
    // 2000 tokens of KV at 2 GB/s is >100 ms of wire time the warm
    // request must not pay again.
    EXPECT_LT(warm.totalSeconds, cold.totalSeconds - 0.05);
}

// ---------------------------------------------------------------
// TTFT metric.
// ---------------------------------------------------------------

TEST(Ttft, ReportedAndOrderedSanely)
{
    core::ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 1.0;
    cfg.numRequests = 30;
    cfg.seed = 33;
    const auto r = core::runServing(cfg);
    ASSERT_EQ(r.ttftSeconds.count(), 30u);
    EXPECT_GT(r.ttftSeconds.min(), 0.0);
    // First token arrives well before the full response.
    EXPECT_LT(r.ttftSeconds.percentile(95), r.p50());
}

TEST(Ttft, CachingCutsFollowUpTtft)
{
    auto run = [](bool caching) {
        core::ServeConfig cfg;
        cfg.chatbot = true;
        cfg.multiTurn = true;
        cfg.engineConfig = core::enginePreset8b();
        cfg.engineConfig.enablePrefixCaching = caching;
        cfg.qps = 0.5;
        cfg.numRequests = 25;
        cfg.seed = 34;
        return core::runServing(cfg);
    };
    const auto with = run(true);
    const auto without = run(false);
    EXPECT_LT(with.ttftSeconds.percentile(95),
              0.6 * without.ttftSeconds.percentile(95));
}

// ---------------------------------------------------------------
// Multi-turn chat sessions (keytakeaway #8 extension).
// ---------------------------------------------------------------

TEST(MultiTurnChat, SessionSamplerDeterministicAndBounded)
{
    workload::ChatSessionSampler sampler(11);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const int turns = sampler.turnCount(i);
        EXPECT_GE(turns, 1);
        EXPECT_LE(turns, workload::ChatSessionSampler::maxTurns);
        EXPECT_EQ(turns, sampler.turnCount(i));
        for (int t = 0; t < turns; ++t) {
            const auto turn = sampler.turn(i, t);
            EXPECT_GT(turn.userTokens, 0);
            EXPECT_GT(turn.outputTokens, 0);
            EXPECT_EQ(turn.userTokens, sampler.turn(i, t).userTokens);
        }
    }
}

TEST(MultiTurnChat, TurnsVaryAcrossSessions)
{
    workload::ChatSessionSampler sampler(11);
    bool varies = false;
    const int first = sampler.turnCount(0);
    for (std::uint64_t i = 1; i < 50 && !varies; ++i)
        varies = sampler.turnCount(i) != first;
    EXPECT_TRUE(varies);
}

TEST(MultiTurnChat, CachingEliminatesMostPrefill)
{
    auto run = [](bool caching) {
        core::ServeConfig cfg;
        cfg.chatbot = true;
        cfg.multiTurn = true;
        cfg.engineConfig = core::enginePreset8b();
        cfg.engineConfig.enablePrefixCaching = caching;
        cfg.qps = 0.5;
        cfg.numRequests = 25;
        cfg.seed = 21;
        return core::runServing(cfg);
    };
    const auto with = run(true);
    const auto without = run(false);
    EXPECT_EQ(with.completed, 25);
    EXPECT_GT(with.turnSeconds.count(), 25u); // multi-turn sessions
    // Follow-up turns reuse the conversation prefix.
    EXPECT_GT(with.cacheHitRate, 0.5);
    EXPECT_LT(with.engineStats.prefillTokens,
              0.5 * static_cast<double>(
                        without.engineStats.prefillTokens));
}

// ---------------------------------------------------------------
// CSV export.
// ---------------------------------------------------------------

TEST(TableCsv, RenderEscapesAndSlugs)
{
    core::Table t("Fig 1: A / B (test)");
    t.header({"name", "value"});
    t.row({"plain", "1"});
    t.row({"with,comma", "quote\"inside"});
    const auto csv = t.renderCsv();
    EXPECT_NE(csv.find("name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
    EXPECT_EQ(t.slug(), "fig-1-a-b-test");
}

TEST(TableCsv, WriteToFile)
{
    core::Table t("csv write test");
    t.header({"a", "b"});
    t.row({"1", "2"});
    const std::string path = "/tmp/agentsim_csv_test.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    std::fclose(f);
    EXPECT_STREQ(buf, "a,b\n");
    std::remove(path.c_str());
}

TEST(Cluster, Deterministic)
{
    const auto a = core::runCluster(
        smallCluster(core::RoutePolicy::LeastLoaded));
    const auto b = core::runCluster(
        smallCluster(core::RoutePolicy::LeastLoaded));
    EXPECT_DOUBLE_EQ(a.p95(), b.p95());
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
}

TEST(Chaos, ClusterSurvivesNodeCrashes)
{
    auto cfg = smallCluster(core::RoutePolicy::LeastLoaded);
    cfg.numRequests = 40;
    cfg.faults.nodeMtbfSeconds = 15.0;
    cfg.faults.nodeRestartMeanSeconds = 4.0;
    cfg.faults.stallMtbfSeconds = 10.0;
    cfg.faults.stallMeanSeconds = 0.2;
    cfg.faults.seed = 7;
    const auto r = core::runCluster(cfg);

    // Nothing hangs and nothing is lost: every request either
    // completed or was abandoned after exhausting its retries.
    EXPECT_EQ(r.completed + r.failed, 40);
    EXPECT_GT(r.completed, 20);
    EXPECT_GT(r.faultStats.crashes, 0);
    EXPECT_EQ(r.faultStats.crashes, r.faultStats.restarts);
    EXPECT_GT(r.faultStats.stalls, 0);
    EXPECT_GT(r.retries, 0);
    EXPECT_GT(r.failovers, 0);

    std::int64_t cancelled = 0;
    std::int64_t crashes = 0;
    double stall_seconds = 0.0;
    for (const auto &node : r.nodes) {
        cancelled += node.engineStats.requestsCancelled;
        crashes += node.engineStats.crashes;
        stall_seconds += node.engineStats.stallSeconds;
    }
    EXPECT_GT(cancelled, 0);
    EXPECT_EQ(crashes, r.faultStats.crashes);
    EXPECT_GT(stall_seconds, 0.0);
}

TEST(Chaos, DeterministicUnderFaults)
{
    auto cfg = smallCluster(core::RoutePolicy::RoundRobin);
    cfg.numRequests = 30;
    cfg.faults.nodeMtbfSeconds = 12.0;
    cfg.faults.nodeRestartMeanSeconds = 3.0;
    const auto a = core::runCluster(cfg);
    const auto b = core::runCluster(cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.faultStats.crashes, b.faultStats.crashes);
    EXPECT_DOUBLE_EQ(a.p95(), b.p95());
}

TEST(Chaos, ToolFaultsAreNonFatal)
{
    auto cfg = smallCluster(core::RoutePolicy::RoundRobin);
    cfg.numRequests = 30;
    cfg.faults.toolFailureProb = 0.25;
    cfg.faults.toolSlowdownProb = 0.25;
    const auto r = core::runCluster(cfg);
    // Tool failures return an error observation the agent absorbs;
    // they never abort a rollout.
    EXPECT_EQ(r.completed, 30);
    EXPECT_EQ(r.failed, 0);
}

// ---------------------------------------------------------------
// Operational resilience: rolling maintenance, circuit breakers,
// overload brownout.
// ---------------------------------------------------------------

TEST(Resilience, RollingDrainMigrateLosesNoWork)
{
    auto cfg = smallCluster(core::RoutePolicy::LeastLoaded);
    cfg.numRequests = 60;
    cfg.maintenance.periodSeconds = 15.0;
    cfg.maintenance.drainDeadlineSeconds = 2.0;
    cfg.maintenance.downtimeSeconds = 3.0;
    cfg.maintenance.mode = sim::MaintenanceMode::DrainMigrate;
    const auto r = core::runCluster(cfg);

    // Nothing hangs and nothing is lost across the rolling restarts.
    EXPECT_EQ(r.completed + r.failed, 60);
    EXPECT_GT(r.maintenanceStats.cycles, 0);
    EXPECT_GT(r.drains, 0);
    EXPECT_GT(r.migratedRequests, 0);
    EXPECT_GT(r.migrationSeconds, 0.0);
    // Live migration keeps invested prefill alive: no request was
    // cancelled by a takedown, so no prefill GPU-s were thrown away.
    EXPECT_DOUBLE_EQ(r.lostPrefillSeconds, 0.0);
    for (const auto &node : r.nodes)
        EXPECT_EQ(node.engineStats.crashes, 0);
}

TEST(Resilience, CrashTakedownsLoseInvestedPrefill)
{
    auto cfg = smallCluster(core::RoutePolicy::LeastLoaded);
    cfg.numRequests = 60;
    cfg.maintenance.periodSeconds = 15.0;
    cfg.maintenance.downtimeSeconds = 3.0;
    cfg.maintenance.mode = sim::MaintenanceMode::Crash;
    const auto r = core::runCluster(cfg);

    EXPECT_EQ(r.completed + r.failed, 60);
    EXPECT_GT(r.maintenanceStats.cycles, 0);
    EXPECT_EQ(r.migratedRequests, 0);
    // The hard restarts destroyed in-flight prefill work that retries
    // then had to repeat — the bill drain+migrate avoids.
    EXPECT_GT(r.lostPrefillSeconds, 0.0);
    EXPECT_GT(r.retries, 0);
}

TEST(Resilience, DeterministicUnderMaintenance)
{
    auto cfg = smallCluster(core::RoutePolicy::LeastLoaded);
    cfg.numRequests = 40;
    cfg.maintenance.periodSeconds = 12.0;
    cfg.maintenance.drainDeadlineSeconds = 1.5;
    cfg.maintenance.downtimeSeconds = 2.0;
    cfg.maintenance.mode = sim::MaintenanceMode::DrainMigrate;
    const auto a = core::runCluster(cfg);
    const auto b = core::runCluster(cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.migratedRequests, b.migratedRequests);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
}

TEST(Health, BreakerOpensOnSustainedFailureAndRecovers)
{
    core::HealthConfig hc; // defaults: open at 60% over >=4 events
    core::HealthRegistry reg(hc, 2);
    EXPECT_TRUE(reg.allows(0, 0));
    EXPECT_EQ(reg.state(0), core::BreakerState::Closed);

    for (int i = 0; i < 5; ++i)
        reg.reportFailure(0, sim::fromSeconds(0.1 * i));
    EXPECT_EQ(reg.state(0), core::BreakerState::Open);
    EXPECT_FALSE(reg.allows(0, sim::fromSeconds(1.0)));
    // The neighbour's breaker is independent.
    EXPECT_TRUE(reg.allows(1, sim::fromSeconds(1.0)));
    EXPECT_EQ(reg.opens(), 1);

    // Cool-down elapsed: the next pick is a half-open probe.
    EXPECT_TRUE(reg.allows(0, sim::fromSeconds(5.0)));
    EXPECT_EQ(reg.state(0), core::BreakerState::HalfOpen);
    // Two successful probes close it again.
    reg.reportSuccess(0, sim::fromSeconds(5.1));
    EXPECT_EQ(reg.state(0), core::BreakerState::HalfOpen);
    reg.reportSuccess(0, sim::fromSeconds(5.2));
    EXPECT_EQ(reg.state(0), core::BreakerState::Closed);
    EXPECT_EQ(reg.closes(), 1);
    // Closing reset the failure history: one new failure does not
    // immediately re-open on the stale EWMA.
    reg.reportFailure(0, sim::fromSeconds(5.3));
    EXPECT_EQ(reg.state(0), core::BreakerState::Closed);
}

TEST(Health, FailedProbeReopensForAFreshCoolDown)
{
    core::HealthConfig hc;
    core::HealthRegistry reg(hc, 1);
    for (int i = 0; i < 5; ++i)
        reg.reportFailure(0, sim::fromSeconds(0.1 * i));
    ASSERT_EQ(reg.state(0), core::BreakerState::Open);
    EXPECT_TRUE(reg.allows(0, sim::fromSeconds(5.0)));
    ASSERT_EQ(reg.state(0), core::BreakerState::HalfOpen);

    reg.reportFailure(0, sim::fromSeconds(5.1));
    EXPECT_EQ(reg.state(0), core::BreakerState::Open);
    EXPECT_EQ(reg.opens(), 2);
    // The cool-down restarts from the re-open, not the first open.
    EXPECT_FALSE(reg.allows(0, sim::fromSeconds(8.0)));
    EXPECT_TRUE(reg.allows(0, sim::fromSeconds(9.2)));
}

TEST(Health, DisabledBreakersAlwaysAllow)
{
    core::HealthConfig hc;
    hc.breakerEnabled = false;
    core::HealthRegistry reg(hc, 1);
    for (int i = 0; i < 20; ++i)
        reg.reportFailure(0, sim::fromSeconds(0.1 * i));
    EXPECT_TRUE(reg.allows(0, sim::fromSeconds(2.0)));
    EXPECT_EQ(reg.state(0), core::BreakerState::Closed);
    EXPECT_EQ(reg.opens(), 0);
    // The health EWMA still tracks, for observability.
    EXPECT_GT(reg.health(0).failureRate(sim::fromSeconds(2.0)), 0.9);
}

TEST(Brownout, EscalatesWithDwellAndRestoresWithHysteresis)
{
    core::BrownoutConfig bc;
    bc.enabled = true; // defaults: 0.90/0.65 KV, 1.5/0.75 burn, 4 s
    core::BrownoutController ctl(bc);
    EXPECT_EQ(ctl.level(), 0);

    // Pressure right away: the dwell time has not elapsed yet.
    ctl.observe(sim::fromSeconds(1.0), 0.95, 0.0);
    EXPECT_EQ(ctl.level(), 0);
    // One level per dwell window, never two at once.
    ctl.observe(sim::fromSeconds(5.0), 0.95, 0.0);
    EXPECT_EQ(ctl.level(), 1);
    ctl.observe(sim::fromSeconds(6.0), 0.5, 2.0); // burn alone
    EXPECT_EQ(ctl.level(), 1);                    // dwell again
    ctl.observe(sim::fromSeconds(10.0), 0.5, 2.0);
    EXPECT_EQ(ctl.level(), 2);
    ctl.observe(sim::fromSeconds(15.0), 0.95, 2.0);
    EXPECT_EQ(ctl.level(), 2); // capped at maxLevel

    // The mid-band holds the level (hysteresis): below the high
    // watermarks but not yet below the low ones.
    ctl.observe(sim::fromSeconds(20.0), 0.80, 1.0);
    EXPECT_EQ(ctl.level(), 2);
    // Full relief steps back down one dwell window at a time.
    ctl.observe(sim::fromSeconds(24.0), 0.5, 0.1);
    EXPECT_EQ(ctl.level(), 1);
    ctl.observe(sim::fromSeconds(25.0), 0.5, 0.1);
    EXPECT_EQ(ctl.level(), 1);
    ctl.observe(sim::fromSeconds(29.0), 0.5, 0.1);
    EXPECT_EQ(ctl.level(), 0);

    EXPECT_EQ(ctl.escalations(), 2);
    EXPECT_EQ(ctl.restorations(), 2);
    EXPECT_EQ(ctl.maxLevelReached(), 2);
}

TEST(Brownout, ApplyTrimsWidthThenDowngradesDeadlineless)
{
    core::BrownoutConfig bc;
    bc.enabled = true;
    core::BrownoutController ctl(bc);

    agents::AgentConfig base;
    base.latsChildren = 5;
    base.scSamples = 5;
    base.maxReflections = 3;

    // Level 0: rollouts run as configured.
    {
        AgentKind kind = AgentKind::Lats;
        agents::AgentConfig cfg = base;
        EXPECT_FALSE(ctl.apply(kind, cfg, Benchmark::WebShop));
        EXPECT_EQ(kind, AgentKind::Lats);
        EXPECT_EQ(cfg.latsChildren, 5);
    }

    ctl.observe(sim::fromSeconds(5.0), 0.95, 2.0);
    ASSERT_EQ(ctl.level(), 1);
    // Level 1 caps test-time-scaling width but keeps the workflow.
    {
        AgentKind kind = AgentKind::Lats;
        agents::AgentConfig cfg = base;
        EXPECT_TRUE(ctl.apply(kind, cfg, Benchmark::WebShop));
        EXPECT_EQ(kind, AgentKind::Lats);
        EXPECT_EQ(cfg.latsChildren, 2);
        EXPECT_EQ(cfg.scSamples, 2);
        EXPECT_EQ(cfg.maxReflections, 1);
    }

    ctl.observe(sim::fromSeconds(10.0), 0.95, 2.0);
    ASSERT_EQ(ctl.level(), 2);
    // Level 2 downgrades deadline-less rollouts to a cheaper
    // workflow...
    {
        AgentKind kind = AgentKind::Lats;
        agents::AgentConfig cfg = base;
        EXPECT_TRUE(ctl.apply(kind, cfg, Benchmark::WebShop));
        EXPECT_EQ(kind, AgentKind::ReAct);
    }
    // ...but deadline-bearing traffic keeps its configured workflow
    // (it is already bounded; swapping it mid-SLO helps nobody).
    {
        AgentKind kind = AgentKind::Lats;
        agents::AgentConfig cfg = base;
        cfg.llmDeadlineSeconds = 30.0;
        EXPECT_TRUE(ctl.apply(kind, cfg, Benchmark::WebShop));
        EXPECT_EQ(kind, AgentKind::Lats);
        EXPECT_EQ(cfg.latsChildren, 2);
    }
    EXPECT_GT(ctl.degradedRollouts(), 0);
}

// ---------------------------------------------------------------
// Autoscaler: controller state machine, warm-up pricing, admission
// control, and the elastic cluster end to end.
// ---------------------------------------------------------------

core::AutoscalerConfig
controllerConfig()
{
    core::AutoscalerConfig a;
    a.enabled = true;
    a.minNodes = 1;
    a.maxNodes = 4;
    a.arrivalTauSeconds = 20.0;
    a.nodeServiceQps = 1.0;
    a.targetUtilization = 0.75;
    a.scaleOutCooldownSeconds = 10.0;
    a.scaleInCooldownSeconds = 30.0;
    a.scaleInUtilization = 0.5;
    return a;
}

TEST(Autoscaler, CapacityPressureScalesOutAndCooldownSuppresses)
{
    core::AutoscalerController ctl(controllerConfig());

    // 4 requests/s sustained: after one tau the EWMA sits around
    // 4 * (1 - 1/e) ~ 2.5/s, well past one node's 0.75 * 1.0/s
    // capacity threshold.
    for (int i = 0; i <= 128; ++i)
        ctl.recordArrival(sim::fromSeconds(0.25 * i));
    const sim::Tick t20 = sim::fromSeconds(20.0);
    EXPECT_GT(ctl.predictedQps(t20), 2.0);

    EXPECT_EQ(ctl.evaluate(t20, 1, 0, 0.0),
              core::ScaleDecision::ScaleOut);
    EXPECT_EQ(ctl.lastReason(), "capacity");

    // Pressure persists but the cooldown window suppresses a second
    // order; the booting node already counts as provisioned.
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(22.0), 1, 1, 0.0),
              core::ScaleDecision::Hold);
    // Arrivals keep flowing (recorded through t=32), so once the
    // cooldown elapses demand still exceeds the now-2-node fleet and
    // the controller re-fires.
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(31.0), 2, 0, 0.0),
              core::ScaleDecision::ScaleOut);
    EXPECT_EQ(ctl.scaleOuts(), 2);
}

TEST(Autoscaler, QueueDelayAndBurnTriggersGateOnEvidence)
{
    auto cfg = controllerConfig();
    cfg.nodeServiceQps = 0.0; // capacity term off
    cfg.minDelaySamples = 4;
    cfg.queueDelayHighSeconds = 2.0;

    {
        core::AutoscalerController ctl(cfg);
        // Below minDelaySamples the estimator stays silent no matter
        // how bad the observations are.
        for (int i = 0; i < 3; ++i)
            ctl.recordQueueDelay(10.0);
        EXPECT_EQ(ctl.queueDelayPercentile(), 0.0);
        EXPECT_EQ(ctl.evaluate(sim::fromSeconds(1.0), 1, 0, 0.0),
                  core::ScaleDecision::Hold);
        ctl.recordQueueDelay(10.0);
        EXPECT_GT(ctl.queueDelayPercentile(), 2.0);
        EXPECT_EQ(ctl.evaluate(sim::fromSeconds(2.0), 1, 0, 0.0),
                  core::ScaleDecision::ScaleOut);
        EXPECT_EQ(ctl.lastReason(), "queue_delay");
        // Each decision resets the estimator: fresh evidence only.
        EXPECT_EQ(ctl.queueDelayPercentile(), 0.0);
    }
    {
        core::AutoscalerController ctl(cfg);
        EXPECT_EQ(ctl.evaluate(sim::fromSeconds(1.0), 1, 0, 2.0),
                  core::ScaleDecision::ScaleOut);
        EXPECT_EQ(ctl.lastReason(), "burn");
        // At the ceiling, pressure cannot order more nodes.
        EXPECT_EQ(ctl.evaluate(sim::fromSeconds(20.0), 4, 0, 5.0),
                  core::ScaleDecision::Hold);
    }
}

TEST(Autoscaler, ScaleInWaitsOutSustainedRelief)
{
    auto cfg = controllerConfig();
    cfg.scaleOutCooldownSeconds = 5.0;
    core::AutoscalerController ctl(cfg);

    // Load a 4/s estimate by t=10, then silence.
    for (int i = 0; i <= 40; ++i)
        ctl.recordArrival(sim::fromSeconds(0.25 * i));
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(10.0), 2, 0, 0.0),
              core::ScaleDecision::ScaleOut);

    // t=25: the estimate has decayed below pressure but not yet below
    // the scale-in band, and the relief window has not elapsed.
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(25.0), 3, 0, 0.0),
              core::ScaleDecision::Hold);
    // t=41: 31 s of quiet — past scaleInCooldownSeconds since both
    // the last pressure (t=10) and the last decision — and demand now
    // fits in one fewer node at scaleInUtilization.
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(41.0), 3, 0, 0.0),
              core::ScaleDecision::ScaleIn);
    EXPECT_EQ(ctl.lastReason(), "idle");
    // Back-to-back shrink is suppressed by the scale-in cooldown...
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(42.0), 2, 0, 0.0),
              core::ScaleDecision::Hold);
    // ...a warming node blocks shrink outright (capacity in flight
    // means the controller recently wanted MORE, not less)...
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(80.0), 2, 1, 0.0),
              core::ScaleDecision::Hold);
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(80.0), 2, 0, 0.0),
              core::ScaleDecision::ScaleIn);
    // ...and the floor is never breached.
    EXPECT_EQ(ctl.evaluate(sim::fromSeconds(200.0), 1, 0, 0.0),
              core::ScaleDecision::Hold);
    EXPECT_EQ(ctl.scaleIns(), 2);
}

TEST(Autoscaler, WarmupPricesBootPlusShardedWeightLoad)
{
    core::AutoscalerConfig a;
    a.nodeBootSeconds = 4.0;
    const llm::ModelSpec model = llm::llama31_8b();
    const llm::NodeSpec node = llm::singleA100();

    // Default bandwidth: the host->GPU (PCIe) offload link.
    const double expect_pcie =
        4.0 + model.weightBytes() /
                  static_cast<double>(node.numGpus) /
                  node.hostOffloadBandwidth;
    EXPECT_DOUBLE_EQ(core::nodeWarmupSeconds(a, model, node),
                     expect_pcie);

    // An explicit bandwidth overrides it; faster links load faster,
    // but the boot floor always remains.
    a.weightLoadBandwidth = 4.0 * node.hostOffloadBandwidth;
    const double fast = core::nodeWarmupSeconds(a, model, node);
    EXPECT_LT(fast, expect_pcie);
    EXPECT_GT(fast, a.nodeBootSeconds);
}

TEST(Admission, RejectsWhenProjectedDelayEatsBudget)
{
    auto cfg = controllerConfig();
    cfg.nodeServiceQps = 2.0;
    cfg.admissionDeadlineFraction = 0.5;
    core::AdmissionController ac(cfg);

    // Little's law with a pinned service rate: 4 queued / 2 per s.
    EXPECT_DOUBLE_EQ(ac.projectedDelaySeconds(4, 1, 0), 2.0);
    // 2 s projected vs a 5 s admissible share of a 10 s budget.
    EXPECT_TRUE(ac.admit(4, 1, 10.0, 0));
    // 15 s projected blows the same budget: reject-fast.
    EXPECT_FALSE(ac.admit(30, 1, 10.0, 0));
    EXPECT_EQ(ac.decisions(), 2);
    EXPECT_EQ(ac.rejects(), 1);
    // Deadline-less requests pass unless admissionMaxDelaySeconds
    // gates them.
    EXPECT_TRUE(ac.admit(1000, 1, 0.0, 0));
    cfg.admissionMaxDelaySeconds = 3.0;
    core::AdmissionController strict(cfg);
    EXPECT_FALSE(strict.admit(1000, 1, 0.0, 0));
}

TEST(Admission, ColdStartAdmitsUntilServiceRateIsLearned)
{
    auto cfg = controllerConfig();
    cfg.nodeServiceQps = 0.0; // learn the rate online
    core::AdmissionController ac(cfg);

    // No completions seen: no evidence of doom, everything admits.
    EXPECT_DOUBLE_EQ(ac.projectedDelaySeconds(100, 1, 0), 0.0);
    EXPECT_TRUE(ac.admit(100, 1, 1.0, 0));

    // Completions at 2/s teach the estimator; a deep queue on a
    // single node now projects far past a 1 s budget.
    for (int i = 0; i <= 40; ++i)
        ac.recordCompletion(sim::fromSeconds(0.5 * i));
    const sim::Tick t = sim::fromSeconds(20.0);
    EXPECT_GT(ac.projectedDelaySeconds(100, 1, t), 10.0);
    EXPECT_FALSE(ac.admit(100, 1, 1.0, t));
}

/** Small elastic cluster on a diurnal curve: chat-heavy so runs stay
 *  fast, sized so the controller demonstrably breathes. */
core::ClusterConfig
elasticCluster()
{
    core::ClusterConfig cfg;
    cfg.numNodes = 1;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = core::RoutePolicy::LeastLoaded;
    core::WorkloadSpec chat;
    chat.chatbot = true;
    chat.weight = 1.0;
    cfg.mix.push_back(chat);
    cfg.numRequests = 300;
    cfg.seed = 11;
    cfg.chatDeadlineSeconds = 60.0;
    cfg.arrival.kind = core::ArrivalPattern::Kind::Diurnal;
    cfg.arrival.periodSeconds = 80.0;
    cfg.arrival.baseQps = 0.4;
    cfg.arrival.peakQps = 6.0;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.minNodes = 1;
    cfg.autoscaler.maxNodes = 3;
    cfg.autoscaler.nodeServiceQps = 1.5;
    cfg.autoscaler.scaleOutCooldownSeconds = 5.0;
    cfg.autoscaler.scaleInCooldownSeconds = 12.0;
    cfg.autoscaler.drainDeadlineSeconds = 3.0;
    return cfg;
}

TEST(Autoscaler, ElasticClusterScalesOutAndInLosslessly)
{
    const auto r = core::runCluster(elasticCluster());

    // Every request is accounted for and the fleet breathed.
    EXPECT_EQ(r.completed + r.failed, 300);
    EXPECT_GT(r.completed, 270);
    EXPECT_GE(r.scaleOuts, 1);
    EXPECT_GE(r.scaleIns, 1);
    EXPECT_GT(r.peakActiveNodes, 1);
    // Scale-in uses drain + live migration, never the crash path:
    // elasticity costs zero lost prefill and zero crash restarts.
    EXPECT_DOUBLE_EQ(r.lostPrefillSeconds, 0.0);
    for (const auto &node : r.nodes)
        EXPECT_EQ(node.engineStats.crashes, 0);
    // Capacity is billed from the scale-out decision to the end of
    // the run, so provisioned time bounds attributed busy time.
    double busy = 0.0;
    for (const auto &node : r.nodes)
        busy += node.engineStats.busySeconds;
    EXPECT_GE(r.provisionedGpuSeconds, busy);
    EXPECT_GT(r.warmupSecondsTotal, 0.0);
}

TEST(Autoscaler, DeterministicAcrossRuns)
{
    const auto a = core::runCluster(elasticCluster());
    const auto b = core::runCluster(elasticCluster());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.scaleOuts, b.scaleOuts);
    EXPECT_EQ(a.scaleIns, b.scaleIns);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.provisionedGpuSeconds,
                     b.provisionedGpuSeconds);
}

TEST(Autoscaler, WarmupIsChargedBeforeTrafficFlows)
{
    auto cfg = elasticCluster();
    // Boot takes longer than the whole run: scale-outs are ordered
    // and billed, but the nodes never finish warming.
    cfg.autoscaler.nodeBootSeconds = 10000.0;
    const auto r = core::runCluster(cfg);

    EXPECT_EQ(r.completed + r.failed, 300);
    EXPECT_GE(r.scaleOuts, 1);
    // No scaled-out node ever took a request...
    EXPECT_EQ(r.peakActiveNodes, 1);
    for (std::size_t i = 1; i < r.nodes.size(); ++i)
        EXPECT_EQ(r.nodes[i].requests, 0);
    // ...but its warm-up bill was still charged.
    EXPECT_GE(r.warmupSecondsTotal, 10000.0);
    EXPECT_EQ(r.scaleIns, 0);
}

TEST(ClusterValidation, RejectsNonsensicalConfigs)
{
    const auto valid = [] {
        core::ClusterConfig cfg;
        cfg.numNodes = 1;
        cfg.engineConfig = core::enginePreset8b();
        core::WorkloadSpec chat;
        chat.chatbot = true;
        cfg.mix.push_back(chat);
        return cfg;
    };
    // The baseline passes.
    core::validateClusterConfig(valid());

    {
        auto cfg = valid();
        cfg.autoscaler.enabled = true;
        cfg.autoscaler.minNodes = 3;
        cfg.autoscaler.maxNodes = 2;
        EXPECT_DEATH(core::validateClusterConfig(cfg),
                     "minNodes 3 > maxNodes 2");
    }
    {
        auto cfg = valid();
        cfg.autoscaler.enabled = true;
        cfg.autoscaler.minNodes = 0;
        EXPECT_DEATH(core::validateClusterConfig(cfg),
                     "0-node floor");
    }
    {
        auto cfg = valid();
        cfg.numNodes = 5;
        cfg.autoscaler.enabled = true; // maxNodes defaults to 4
        EXPECT_DEATH(core::validateClusterConfig(cfg),
                     "outside");
    }
    {
        auto cfg = valid();
        cfg.brownout.enabled = true;
        cfg.brownout.kvHighWatermark = 0.5;
        cfg.brownout.kvLowWatermark = 0.9;
        EXPECT_DEATH(core::validateClusterConfig(cfg),
                     "KV watermarks inverted");
    }
    {
        auto cfg = valid();
        cfg.arrival.kind = core::ArrivalPattern::Kind::Diurnal;
        cfg.arrival.periodSeconds = 100.0;
        cfg.arrival.burstStartFraction = 0.9;
        cfg.arrival.burstDurationSeconds = 20.0;
        EXPECT_DEATH(core::validateClusterConfig(cfg),
                     "overruns");
    }
    {
        auto cfg = valid();
        cfg.autoscaler.enabled = true;
        cfg.autoscaler.nodeServiceQps = 1.0;
        cfg.autoscaler.scaleInUtilization = 0.9; // >= target 0.75
        EXPECT_DEATH(core::validateClusterConfig(cfg),
                     "hysteresis");
    }
}

} // namespace
