/**
 * @file
 * Episode checkpointing and resumable recovery: the CheckpointStore
 * policy gate and delta journaling, the determinism contract (fault
 * streams unperturbed by checkpointing on/off and by the admission
 * knob), crash x parked-chain interaction, and cluster-level
 * resume accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/cluster.hh"
#include "core/cost_report.hh"
#include "core/probe.hh"
#include "serving/checkpoint.hh"
#include "serving/engine.hh"
#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "sim/simulation.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using agents::AgentKind;
using workload::Benchmark;
using serving::CheckpointPolicy;
using serving::CheckpointStore;
using serving::EpisodeCheckpoint;
using serving::LlmEngine;
using sim::Simulation;
using sim::Task;

// ---------------------------------------------------------------
// CheckpointStore: policy gate and delta journaling.
// ---------------------------------------------------------------

TEST(CheckpointStore, DisabledPolicyNeverAdmits)
{
    CheckpointPolicy policy; // enabled defaults to false
    CheckpointStore store(policy, 1);
    for (int iter = 1; iter <= 8; ++iter)
        EXPECT_FALSE(store.shouldCheckpoint(0, iter));
}

TEST(CheckpointStore, EveryKAndMinIterationsGate)
{
    CheckpointPolicy policy;
    policy.enabled = true;
    policy.everyIterations = 2;
    policy.minIterations = 3;
    CheckpointStore store(policy, 1);
    // Below the age floor nothing is journaled, even on a k-multiple.
    EXPECT_FALSE(store.shouldCheckpoint(0, 1));
    EXPECT_FALSE(store.shouldCheckpoint(0, 2));
    // At and past the floor, only every 2nd iteration qualifies.
    EXPECT_FALSE(store.shouldCheckpoint(0, 3));
    EXPECT_TRUE(store.shouldCheckpoint(0, 4));
    EXPECT_FALSE(store.shouldCheckpoint(0, 5));
    EXPECT_TRUE(store.shouldCheckpoint(0, 6));
}

TEST(CheckpointStore, AdmitProbIsPerEpisodeDeterministic)
{
    CheckpointPolicy policy;
    policy.enabled = true;
    policy.admitProb = 0.5;
    CheckpointStore a(policy, 42);
    CheckpointStore b(policy, 42);
    // Same seed, same episode -> identical admission sequence (the
    // draw comes from a dedicated per-episode stream, so it cannot
    // depend on draw order across episodes).
    std::vector<bool> seq_a, seq_b;
    for (int iter = 1; iter <= 32; ++iter) {
        seq_a.push_back(a.shouldCheckpoint(7, iter));
        b.shouldCheckpoint(3, iter); // interleave another episode
        seq_b.push_back(b.shouldCheckpoint(7, iter));
    }
    EXPECT_EQ(seq_a, seq_b);
    // A 0.5 coin over 32 flips lands strictly between the extremes.
    const auto admitted = std::count(seq_a.begin(), seq_a.end(), true);
    EXPECT_GT(admitted, 0);
    EXPECT_LT(admitted, 32);
}

TEST(CheckpointStore, PutChargesDeltaBytesOnly)
{
    CheckpointPolicy policy;
    policy.enabled = true;
    policy.journalBytes = 1000;
    policy.wireBandwidth = 1e6; // 1 MB/s: seconds easy to eyeball
    CheckpointStore store(policy, 1);

    EpisodeCheckpoint first;
    first.iteration = 1;
    first.chain = kv::TokenChain(16, std::vector<kv::TokenId>(100, 7));
    first.gpuSeconds = 1.0;
    store.put(0, std::move(first), /*bytes_per_token=*/10.0);
    // 100 tokens x 10 B + 1000 B journal overhead.
    EXPECT_EQ(store.stats().bytesWritten, 2000);
    EXPECT_DOUBLE_EQ(store.stats().snapshotSeconds, 2000 / 1e6);

    // Re-checkpointing the same episode pays only for the appended
    // tokens, not the whole chain again.
    EpisodeCheckpoint second;
    second.iteration = 2;
    second.chain = kv::TokenChain(16, std::vector<kv::TokenId>(150, 7));
    second.gpuSeconds = 2.0;
    store.put(0, std::move(second), 10.0);
    EXPECT_EQ(store.stats().checkpointsTaken, 2);
    EXPECT_EQ(store.stats().bytesWritten, 2000 + 1500);

    // A shrinking chain (Reflexion trial boundary) costs only the
    // journal overhead.
    EpisodeCheckpoint third;
    third.iteration = 3;
    third.chain = kv::TokenChain(16, std::vector<kv::TokenId>(50, 7));
    store.put(0, std::move(third), 10.0);
    EXPECT_EQ(store.stats().bytesWritten, 2000 + 1500 + 1000);

    const EpisodeCheckpoint *latest = store.find(0);
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->iteration, 3);
    EXPECT_EQ(latest->chain.size(), 50);

    EXPECT_EQ(store.find(99), nullptr);
    store.erase(0);
    EXPECT_EQ(store.find(0), nullptr);
    EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------
// Determinism: checkpointing must not perturb the fault streams.
// ---------------------------------------------------------------

core::ClusterConfig
chaosCluster()
{
    core::ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = core::RoutePolicy::LeastLoaded;
    core::WorkloadSpec react;
    react.agent = AgentKind::ReAct;
    react.bench = Benchmark::HotpotQA;
    cfg.mix.push_back(react);
    core::WorkloadSpec reflexion;
    reflexion.agent = AgentKind::Reflexion;
    reflexion.bench = Benchmark::WebShop;
    cfg.mix.push_back(reflexion);
    cfg.qps = 2.0;
    cfg.numRequests = 40;
    cfg.seed = 11;
    cfg.faults.nodeMtbfSeconds = 30.0;
    cfg.faults.nodeRestartMeanSeconds = 4.0;
    return cfg;
}

TEST(Recovery, FaultScheduleIdenticalWithCheckpointingOnOrOff)
{
    auto cfg = chaosCluster();
    const auto off = core::runCluster(cfg);
    cfg.checkpoint.enabled = true;
    const auto on = core::runCluster(cfg);

    // The injector draws from its own streams; enabling checkpointing
    // (snapshot journaling, resume decisions, KV restores) must leave
    // every fault timestamp where it was. A resumed run can drain
    // earlier — and so live through fewer crashes — but every crash
    // both runs saw must land on the same sim time.
    ASSERT_GT(off.faultStats.crashes, 0);
    const auto &a = off.faultStats.crashSeconds;
    const auto &b = on.faultStats.crashSeconds;
    const std::size_t common = std::min(a.size(), b.size());
    ASSERT_GT(common, 0u);
    for (std::size_t i = 0; i < common; ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]) << "crash " << i << " moved";
    EXPECT_DOUBLE_EQ(off.faultStats.stallSecondsInjected,
                     on.faultStats.stallSecondsInjected);
    // Baseline runs report zero recovery activity.
    EXPECT_EQ(off.recovery.resumes, 0);
    EXPECT_DOUBLE_EQ(off.recovery.recoveredGpuSeconds, 0.0);
}

TEST(Recovery, AdmitProbDrawsFromDedicatedStream)
{
    auto cfg = chaosCluster();
    cfg.checkpoint.enabled = true;
    const auto always = core::runCluster(cfg);
    // Thinning admission consumes draws only from the per-episode
    // "checkpoint" stream, so the fault schedule still cannot move.
    cfg.checkpoint.admitProb = 0.4;
    const auto thinned = core::runCluster(cfg);
    const auto &a = always.faultStats.crashSeconds;
    const auto &b = thinned.faultStats.crashSeconds;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]) << "crash " << i << " moved";
    EXPECT_LT(thinned.recovery.checkpointsTaken,
              always.recovery.checkpointsTaken);
}

// ---------------------------------------------------------------
// Cluster-level resume accounting.
// ---------------------------------------------------------------

TEST(Recovery, ResumeRecoversWorkAndReducesRecompute)
{
    auto cfg = chaosCluster();
    const auto off = core::runCluster(cfg);
    cfg.checkpoint.enabled = true;
    const auto on = core::runCluster(cfg);

    // Same crash schedule; the checkpointed run resumes instead of
    // replaying and recovers a strictly positive amount of work.
    EXPECT_EQ(on.completed + on.failed, cfg.numRequests);
    EXPECT_GT(on.recovery.checkpointsTaken, 0);
    EXPECT_GT(on.recovery.bytesWritten, 0);
    EXPECT_GT(on.recovery.resumes, 0);
    EXPECT_EQ(on.recovery.kvRestores + on.recovery.coldFallbacks,
              on.recovery.resumes);
    EXPECT_GT(on.recovery.recoveredGpuSeconds, 0.0);
    EXPECT_DOUBLE_EQ(
        on.recovery.recoveredByCause[serving::RecoveryCause::Crash] +
            on.recovery.recoveredByCause[serving::RecoveryCause::Shed],
        on.recovery.recoveredGpuSeconds);
    EXPECT_LT(on.recovery.lostGpuSeconds, off.recovery.lostGpuSeconds);

    // Retry/failover cause splits reconcile with the totals on both
    // runs.
    for (const auto *r : {&off, &on}) {
        EXPECT_EQ(std::accumulate(r->retriesByCause.begin(),
                                  r->retriesByCause.end(), 0),
                  r->retries);
        EXPECT_EQ(std::accumulate(r->failoversByCause.begin(),
                                  r->failoversByCause.end(), 0),
                  r->failovers);
    }
}

TEST(Recovery, CostReportFooterAttributesRecoveredWork)
{
    auto cfg = chaosCluster();
    cfg.checkpoint.enabled = true;
    const auto r = core::runCluster(cfg);
    core::CostReport report;
    report.add("episodes", r.episodeCost, r.completed);
    for (std::size_t c = 0; c < serving::RecoveryCause::Count; ++c) {
        report.addRecoveredGpuSeconds(serving::RecoveryCause::names[c],
                                      r.recovery.recoveredByCause[c]);
    }
    report.addRecoveredGpuSeconds("crash", 0.0); // accumulates
    EXPECT_DOUBLE_EQ(report.recoveredGpuSeconds(),
                     r.recovery.recoveredGpuSeconds);
    // The footer rows render without disturbing the ledger rows.
    const auto table = report.render("episode cost");
    (void)table;
    EXPECT_DOUBLE_EQ(report.total().gpuSeconds(),
                     r.episodeCost.gpuSeconds());
}

// ---------------------------------------------------------------
// Crash x parked chain: a chain demoted to the spill tier for a
// tool wait dies with the node like everything else — no leaked
// tier blocks, clean restart, and the prefix can be re-wired.
// ---------------------------------------------------------------

serving::EngineConfig
parkingConfig()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.hostCacheBlocks = 256;
    // Park unconditionally so the test exercises the mechanics.
    cfg.parkUtilizationThreshold = 0.0;
    return cfg;
}

std::vector<kv::TokenId>
testPrompt(std::uint64_t stream, std::int64_t n)
{
    return workload::makeTokens(
        workload::streamId(1, "recovery") + stream, n);
}

Task<serving::GenResult>
submitParked(LlmEngine &engine, std::vector<kv::TokenId> tokens,
             std::int64_t out, double park_seconds)
{
    serving::GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize, tokens);
    req.maxNewTokens = out;
    req.expectedParkSeconds = park_seconds;
    co_return co_await engine.generate(std::move(req));
}

Task<void>
crashAt(Simulation &sim, LlmEngine &engine, double when)
{
    co_await sim::delaySec(sim, when);
    engine.crash();
}

TEST(Recovery, CrashWhileChainParkedLeaksNothing)
{
    Simulation sim;
    LlmEngine engine(sim, parkingConfig());

    // The request finishes quickly, parks its chain in the DRAM tier
    // for a long tool wait, and the node crashes mid-wait — before
    // the pre-wake prefetch fires.
    const auto p = testPrompt(0, 512);
    auto t = submitParked(engine, p, 32, /*park_seconds=*/20.0);
    auto c = crashAt(sim, engine, 5.0);
    sim.run();

    ASSERT_TRUE(t.result().ok());
    EXPECT_EQ(engine.stats().parkedChains, 1);
    EXPECT_GT(engine.stats().parkedBlocks, 0);
    // The crash beat the prefetch; the guarded callback must notice
    // the node died and promote nothing.
    EXPECT_EQ(engine.stats().prefetchedBlocks, 0);

    // Crash reset the whole hierarchy: no in-use blocks, no tier
    // residents, invariants hold.
    EXPECT_EQ(engine.blockManager().blocksInUse(), 0);
    EXPECT_EQ(engine.blockManager().hostCachedBlocks(), 0);
    EXPECT_EQ(engine.blockManager().nvmeCachedBlocks(), 0);
    engine.checkInvariants();

    // After restart the store's chain can be re-wired into the cold
    // pool (the resume path's KV restore) and accounting stays sane.
    engine.restart();
    EXPECT_GT(engine.preloadPrefix(
                  kv::TokenChain(engine.config().blockSize, p)),
              0);
    engine.checkInvariants();
}

TEST(Recovery, ClusterChaosWithParkingAndCheckpointing)
{
    auto cfg = chaosCluster();
    cfg.checkpoint.enabled = true;
    cfg.engineConfig.hostCacheBlocks = 512;
    cfg.engineConfig.parkUtilizationThreshold = 0.0;
    const auto r = core::runCluster(cfg);
    // Crashes, tool-wait parking and checkpoint-resume compose: every
    // request resolves, work is recovered, and the per-node engines
    // survived their invariant checks (checked on every free).
    EXPECT_EQ(r.completed + r.failed, cfg.numRequests);
    EXPECT_GT(r.faultStats.crashes, 0);
    EXPECT_GT(r.recovery.resumes, 0);
    EXPECT_GT(r.recovery.recoveredGpuSeconds, 0.0);
    std::int64_t parked = 0;
    for (const auto &node : r.nodes)
        parked += node.engineStats.parkedChains;
    EXPECT_GT(parked, 0);
}

} // namespace
