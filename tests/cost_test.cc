/**
 * @file
 * Tests for per-request cost attribution: ledger conservation against
 * engine aggregates, cost-report rollups, and the machine-readable
 * perf-report harness (render/parse round trip, direction inference,
 * regression comparison).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/cluster.hh"
#include "core/cost_report.hh"
#include "core/perf_report.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "serving/engine.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using serving::CostLedger;
using serving::GenRequest;
using serving::GenResult;
using serving::LlmEngine;
using sim::Simulation;
using sim::Task;

Task<GenResult>
submit(LlmEngine &engine, std::uint64_t stream, std::int64_t prompt_len,
       std::int64_t out)
{
    GenRequest req;
    req.prompt = kv::TokenChain(
        engine.config().blockSize,
        workload::makeTokens(workload::streamId(3, "cost") + stream,
                             prompt_len));
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

serving::EngineConfig
smallConfig()
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    return cfg;
}

Task<GenResult>
submitTracked(LlmEngine &engine, std::uint64_t stream,
              std::int64_t prompt_len, std::int64_t out,
              std::uint64_t *handle)
{
    GenRequest req;
    req.prompt = kv::TokenChain(
        engine.config().blockSize,
        workload::makeTokens(workload::streamId(3, "cost") + stream,
                             prompt_len));
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req), handle);
}

// ---------------------------------------------------------------------
// Ledger conservation.
// ---------------------------------------------------------------------

TEST(CostLedger, SingleRequestLedgerMatchesEngineAggregate)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    auto t = submit(engine, 0, 300, 60);
    sim.run();
    const GenResult r = t.result();
    ASSERT_TRUE(r.ok());

    EXPECT_GT(r.ledger.prefillGpuSeconds, 0.0);
    EXPECT_GT(r.ledger.decodeGpuSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.ledger.queueSeconds, 0.0);
    EXPECT_GT(r.ledger.kvBlockSeconds, 0.0);
    EXPECT_GT(r.ledger.energyJoules, 0.0);

    // Alone in every step, the request owns all busy time and energy.
    EXPECT_NEAR(r.ledger.gpuSeconds(), engine.stats().busySeconds,
                1e-9);
    EXPECT_NEAR(r.ledger.energyJoules, engine.stats().busyJoules,
                1e-6);
    EXPECT_NEAR(r.ledger.kvBlockSeconds,
                engine.stats().kvBlockSeconds, 1e-9);
}

TEST(CostLedger, ConcurrentLedgersSumToEngineBusyTime)
{
    Simulation sim;
    LlmEngine engine(sim, smallConfig());
    std::vector<Task<GenResult>> gens;
    for (std::uint64_t i = 0; i < 8; ++i)
        gens.push_back(submit(engine, i, 200 + 50 * i, 40 + 10 * i));
    sim.run();

    CostLedger sum;
    for (auto &t : gens) {
        ASSERT_TRUE(t.result().ok());
        sum += t.result().ledger;
    }
    // Attributed shares partition the shared batched steps exactly.
    EXPECT_NEAR(sum.gpuSeconds(), engine.stats().busySeconds,
                1e-9 * engine.stats().busySeconds);
    EXPECT_NEAR(sum.energyJoules, engine.stats().busyJoules,
                1e-9 * engine.stats().busyJoules);
    EXPECT_NEAR(sum.kvBlockSeconds, engine.stats().kvBlockSeconds,
                1e-9 * engine.stats().kvBlockSeconds);
}

TEST(CostLedger, PreemptionChargesWasteAndConservationHolds)
{
    // A KV pool too small for both long requests forces recompute
    // preemption; the re-prefilled tokens must show up as waste.
    auto cfg = smallConfig();
    cfg.kvPoolBytes = 96 * 16 * cfg.model.kvBytesPerToken();
    Simulation sim;
    LlmEngine engine(sim, cfg);
    std::vector<Task<GenResult>> gens;
    for (std::uint64_t i = 0; i < 3; ++i)
        gens.push_back(submit(engine, 40 + i, 500, 300));
    sim.run();

    ASSERT_GT(engine.stats().preemptions, 0);
    EXPECT_GT(engine.stats().wastedSeconds, 0.0);

    CostLedger sum;
    for (auto &t : gens) {
        ASSERT_TRUE(t.result().ok());
        sum += t.result().ledger;
    }
    EXPECT_NEAR(sum.wastedGpuSeconds, engine.stats().wastedSeconds,
                1e-9);
    // Waste is a subset of prefill time, not an extra term, so the
    // ledger total still reconciles with engine busy time.
    EXPECT_LE(sum.wastedGpuSeconds, sum.prefillGpuSeconds + 1e-12);
    EXPECT_NEAR(sum.gpuSeconds(), engine.stats().busySeconds,
                1e-9 * engine.stats().busySeconds);
}

TEST(CostLedger, LiveMigrationConservesGpuWork)
{
    // A warm live migration must not change what the request's GPU
    // work costs: the decode resumes where it left off, so migrated
    // ledger GPU-s matches the unmigrated baseline within tolerance
    // and the interconnect transfer shows up as a separate charge,
    // not as recompute.
    double baseline = 0.0;
    {
        Simulation sim;
        LlmEngine engine(sim, smallConfig());
        auto t = submit(engine, 70, 400, 200);
        sim.run();
        ASSERT_TRUE(t.result().ok());
        baseline = t.result().ledger.gpuSeconds();
    }

    Simulation sim;
    LlmEngine source(sim, smallConfig());
    LlmEngine target(sim, smallConfig());
    std::uint64_t handle = 0;
    auto t = submitTracked(source, 70, 400, 200, &handle);
    ASSERT_NE(handle, 0u);
    // Export mid-decode; the target is cache-cold, so the whole
    // computed chain crosses the interconnect.
    sim.schedule(sim::fromSeconds(1.5), [&] {
        auto m = source.exportRequest(handle);
        ASSERT_TRUE(m.has_value());
        target.importRequest(std::move(*m), /*interconnect=*/200e9);
    });
    sim.run();

    const GenResult r = t.result();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.output.count, 200);
    ASSERT_GT(baseline, 0.0);
    EXPECT_NEAR(r.ledger.gpuSeconds(), baseline, 0.02 * baseline);
    EXPECT_GT(r.ledger.transferSeconds, 0.0);
    EXPECT_NEAR(r.ledger.transferSeconds,
                target.stats().migrationSeconds, 1e-9);
    // Warm landing: nothing recomputed on either side.
    EXPECT_DOUBLE_EQ(r.ledger.wastedGpuSeconds, 0.0);
    EXPECT_DOUBLE_EQ(source.stats().wastedSeconds, 0.0);
    EXPECT_DOUBLE_EQ(target.stats().wastedSeconds, 0.0);
    // The split work reconciles with the two engines' busy time.
    EXPECT_NEAR(r.ledger.gpuSeconds(),
                source.stats().busySeconds + target.stats().busySeconds,
                0.02 * baseline);
    source.checkInvariants();
    target.checkInvariants();
}

TEST(CostLedger, WarmTargetMigrationChargesOnlyMissingBlocks)
{
    // Regression (KV wire accounting): the migration transfer is
    // sized by the *importing* side's allocation — blocks the target
    // already holds never cross the interconnect. A source-side chain
    // count would bill prefix-cached blocks the target reuses.
    auto runMigration = [](bool warm_target) {
        Simulation sim;
        LlmEngine source(sim, smallConfig());
        LlmEngine target(sim, smallConfig());
        if (warm_target) {
            // Same prompt stream: primes the target's prefix cache.
            auto w = submit(target, 70, 400, 1);
            sim.run();
            EXPECT_TRUE(w.result().ok());
        }
        std::uint64_t handle = 0;
        auto t = submitTracked(source, 70, 400, 200, &handle);
        sim.schedule(sim::fromSeconds(1.5), [&] {
            auto m = source.exportRequest(handle);
            ASSERT_TRUE(m.has_value());
            target.importRequest(std::move(*m), /*interconnect=*/200e9);
        });
        sim.run();
        GenResult r = t.result();
        EXPECT_TRUE(r.ok());
        return std::pair(std::move(r),
                         target.stats().migrationSeconds);
    };
    const auto [cold, cold_wire] = runMigration(false);
    const auto [warm, warm_wire] = runMigration(true);

    ASSERT_GT(cold_wire, 0.0);
    // The generated (unshared) tail still crosses the wire, but the
    // 400-token prompt prefix does not.
    EXPECT_GT(warm_wire, 0.0);
    EXPECT_LT(warm_wire, 0.5 * cold_wire);
    // Conservation: the cheaper wire charge is exactly what lands in
    // the request's ledger, and the reuse changes no GPU work.
    EXPECT_NEAR(warm.ledger.transferSeconds, warm_wire, 1e-9);
    EXPECT_NEAR(warm.ledger.gpuSeconds(), cold.ledger.gpuSeconds(),
                0.02 * cold.ledger.gpuSeconds());
    EXPECT_DOUBLE_EQ(warm.ledger.wastedGpuSeconds, 0.0);
}

TEST(CostLedger, ServingRunConservesWithinOnePercent)
{
    // Fig14-style open-loop agent serving: the sum of every rollout's
    // attributed ledger must reconcile with the engine aggregate
    // within 1% (ISSUE acceptance bound; slack only from requests
    // cancelled mid-step).
    core::ServeConfig cfg;
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = 20;
    cfg.seed = 5;
    const core::ServeResult r = core::runServing(cfg);

    ASSERT_GT(r.completed, 0);
    ASSERT_GT(r.engineStats.busySeconds, 0.0);
    EXPECT_NEAR(r.totalCost.gpuSeconds(), r.engineStats.busySeconds,
                0.01 * r.engineStats.busySeconds);
    EXPECT_NEAR(r.totalCost.energyJoules, r.engineStats.busyJoules,
                0.01 * r.engineStats.busyJoules);
    EXPECT_NEAR(r.totalCost.savedPrefillSeconds,
                r.engineStats.savedPrefillSeconds,
                0.01 * r.engineStats.savedPrefillSeconds + 1e-9);
}

TEST(CostLedger, ChatbotServingConserves)
{
    core::ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 3.0;
    cfg.numRequests = 40;
    cfg.seed = 9;
    const core::ServeResult r = core::runServing(cfg);

    ASSERT_GT(r.completed, 0);
    EXPECT_NEAR(r.totalCost.gpuSeconds(), r.engineStats.busySeconds,
                0.01 * r.engineStats.busySeconds);
}

// ---------------------------------------------------------------------
// Cost report rollup.
// ---------------------------------------------------------------------

CostLedger
ledgerOf(double prefill, double decode, double energy)
{
    CostLedger l;
    l.prefillGpuSeconds = prefill;
    l.decodeGpuSeconds = decode;
    l.energyJoules = energy;
    return l;
}

TEST(CostReport, RollsUpByLabelWithAdditiveTotal)
{
    core::CostReport report;
    report.add("ReAct", ledgerOf(1.0, 4.0, 100.0));
    report.add("ReAct", ledgerOf(0.5, 2.0, 50.0));
    report.add("CoT", ledgerOf(0.25, 1.0, 25.0), 3);

    EXPECT_EQ(report.rows(), 2u);
    EXPECT_DOUBLE_EQ(report.ledger("ReAct").gpuSeconds(), 7.5);
    EXPECT_DOUBLE_EQ(report.total().gpuSeconds(), 8.75);
    EXPECT_DOUBLE_EQ(report.total().energyJoules, 175.0);

    const std::string table =
        report.render("unit test").render();
    EXPECT_NE(table.find("ReAct"), std::string::npos);
    EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(CostReport, ExportsOneSeriesPerWorkflowLabel)
{
    core::CostReport report;
    report.add("HotpotQA/ReAct", ledgerOf(1.0, 2.0, 30.0));
    report.add("chat", ledgerOf(0.5, 1.0, 10.0));
    telemetry::MetricsRegistry registry;
    report.exportMetrics(registry);
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("agentsim_cost_attributed_gpu_seconds_total{"
                        "workflow=\"HotpotQA/ReAct\"} 3\n"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_cost_attributed_gpu_seconds_total{"
                        "workflow=\"chat\"} 1.5\n"),
              std::string::npos);
    // The TOTAL row is the sum over the label, not a series of its own.
    EXPECT_EQ(prom.find("\nagentsim_cost_attributed_gpu_seconds_total "),
              std::string::npos);
    // One HELP line for the family, however many workflows it spans.
    const std::string help =
        "# HELP agentsim_cost_attributed_gpu_seconds_total ";
    ASSERT_NE(prom.find(help), std::string::npos);
    EXPECT_EQ(prom.find(help, prom.find(help) + 1), std::string::npos);
}

TEST(CostReport, RecoveredSecondsCarryACauseLabel)
{
    core::CostReport report;
    report.addRecoveredGpuSeconds("crash", 2.0);
    report.addRecoveredGpuSeconds("shed", 0.5);
    telemetry::MetricsRegistry registry;
    report.exportMetrics(registry);
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("agentsim_cost_recovered_gpu_seconds_total{cause="
                        "\"crash\"} 2\n"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_cost_recovered_gpu_seconds_total{cause="
                        "\"shed\"} 0.5\n"),
              std::string::npos);
}

TEST(CostReport, ProvisionedFooterReportsElasticCapacity)
{
    core::CostReport report;
    report.add("chat", ledgerOf(1.0, 4.0, 100.0));

    // Without a provisioned figure the footer stays out of the way.
    EXPECT_EQ(report.render("unit test").render().find("PROVISIONED"),
              std::string::npos);

    report.setProvisionedGpuSeconds(10.0);
    EXPECT_DOUBLE_EQ(report.provisionedGpuSeconds(), 10.0);
    const std::string table = report.render("unit test").render();
    EXPECT_NE(table.find("PROVISIONED"), std::string::npos);

    telemetry::MetricsRegistry registry;
    report.exportMetrics(registry);
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("agentsim_cost_provisioned_gpu_seconds_total"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_cost_provisioned_utilization"),
              std::string::npos);

    report.clear();
    EXPECT_DOUBLE_EQ(report.provisionedGpuSeconds(), 0.0);
}

TEST(CostReport, ProvisionedBoundsAttributedBusySeconds)
{
    // An autoscaled cluster bills capacity from each scale-out
    // decision (warm-up included) to decommission or run end, so the
    // provisioned GPU-seconds must bound the busy GPU-seconds the
    // engines actually attributed to requests.
    core::ClusterConfig cfg;
    cfg.numNodes = 1;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = core::RoutePolicy::LeastLoaded;
    core::WorkloadSpec chat;
    chat.chatbot = true;
    cfg.mix.push_back(chat);
    cfg.numRequests = 150;
    cfg.seed = 7;
    cfg.arrival.kind = core::ArrivalPattern::Kind::Diurnal;
    cfg.arrival.periodSeconds = 60.0;
    cfg.arrival.baseQps = 0.5;
    cfg.arrival.peakQps = 5.0;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.maxNodes = 3;
    cfg.autoscaler.nodeServiceQps = 1.5;
    cfg.autoscaler.scaleOutCooldownSeconds = 5.0;
    const auto r = core::runCluster(cfg);

    double busy = 0.0;
    for (const auto &node : r.nodes)
        busy += node.engineStats.busySeconds;
    EXPECT_GT(r.provisionedGpuSeconds, 0.0);
    EXPECT_GE(r.provisionedGpuSeconds, busy);

    core::CostReport report;
    report.setProvisionedGpuSeconds(r.provisionedGpuSeconds);
    EXPECT_GE(report.provisionedGpuSeconds(), busy);
}

// ---------------------------------------------------------------------
// Perf report harness.
// ---------------------------------------------------------------------

TEST(PerfReport, RenderParseRoundTrip)
{
    core::PerfReport report;
    report.setGenerator("cost_test");
    report.set("react_p95_seconds", 12.5);
    report.set("react_throughput_qps", 2.25);
    report.set("sim_events_per_second", 1.5e6);
    report.set("react_p95_seconds", 13.0); // overwrite keeps order

    const auto parsed = core::PerfReport::parse(report.renderJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->generator(), "cost_test");
    ASSERT_EQ(parsed->metrics().size(), 3u);
    EXPECT_EQ(parsed->metrics()[0].first, "react_p95_seconds");
    EXPECT_DOUBLE_EQ(parsed->metrics()[0].second, 13.0);
    EXPECT_DOUBLE_EQ(*parsed->get("sim_events_per_second"), 1.5e6);
}

TEST(PerfReport, ParseRejectsMalformedInput)
{
    EXPECT_FALSE(core::PerfReport::parse("").has_value());
    EXPECT_FALSE(core::PerfReport::parse("{").has_value());
    EXPECT_FALSE(core::PerfReport::parse("not json").has_value());
    EXPECT_FALSE(
        core::PerfReport::parse("{\"metrics\": {\"a\": \"x\"}}")
            .has_value());
}

TEST(PerfReport, DirectionInference)
{
    using core::MetricDirection;
    EXPECT_EQ(core::metricDirection("react_p95_seconds"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(core::metricDirection("run_energy_wh"),
              MetricDirection::LowerIsBetter);
    // Throughput suffixes win over the trailing "_second(s)".
    EXPECT_EQ(core::metricDirection("chat_tokens_per_second"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(core::metricDirection("chat_throughput_qps"),
              MetricDirection::HigherIsBetter);
    // Host self-timing never gates a diff: nondeterministic.
    EXPECT_EQ(core::metricDirection("sim_events_per_second"),
              MetricDirection::Informational);
    EXPECT_EQ(core::metricDirection("sim_wall_seconds"),
              MetricDirection::Informational);
    EXPECT_EQ(core::metricDirection("crash_off_goodput"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(core::metricDirection("ttft_attainment"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(core::metricDirection("slo_alerts"),
              MetricDirection::Informational);
}

TEST(PerfReport, CompareFlagsRegressionsByDirection)
{
    core::PerfReport base;
    base.set("p95_seconds", 10.0);
    base.set("throughput_qps", 4.0);
    base.set("slo_alerts", 2.0);
    base.set("only_in_base", 1.0);

    core::PerfReport cand;
    cand.set("p95_seconds", 11.5);    // +15% latency: regression
    cand.set("throughput_qps", 3.0);  // -25% throughput: regression
    cand.set("slo_alerts", 50.0);     // informational: never regresses
    cand.set("only_in_cand", 1.0);

    const auto cmp = core::compareReports(base, cand, 0.10);
    EXPECT_TRUE(cmp.hasRegression);
    ASSERT_EQ(cmp.deltas.size(), 3u);
    EXPECT_TRUE(cmp.deltas[0].regressed);
    EXPECT_TRUE(cmp.deltas[1].regressed);
    EXPECT_FALSE(cmp.deltas[2].regressed);
    ASSERT_EQ(cmp.missing.size(), 2u);

    // Within threshold: no regression; improvements flagged.
    core::PerfReport good;
    good.set("p95_seconds", 8.0);
    good.set("throughput_qps", 4.1);
    good.set("slo_alerts", 2.0);
    good.set("only_in_base", 1.0);
    const auto ok = core::compareReports(base, good, 0.10);
    EXPECT_FALSE(ok.hasRegression);
    EXPECT_TRUE(ok.deltas[0].improved);
    EXPECT_FALSE(ok.deltas[1].improved); // +2.5% under threshold
}

} // namespace
