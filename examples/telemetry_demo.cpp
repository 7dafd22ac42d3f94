/**
 * @file
 * Telemetry walkthrough: run a small ReAct serving workload with the
 * full observability stack attached and emit
 *
 *   telemetry_demo.prom — Prometheus text exposition of the engine's
 *                         metric families;
 *   telemetry_demo.csv  — every metric sampled at the time-series
 *                         store's cadence, one series,time_s,value
 *                         row per point (batch occupancy, token
 *                         counts, KV usage, prefix-hit rate,
 *                         preemptions);
 *   telemetry_demo.json — a cross-layer Chrome trace: engine
 *                         iterations, per-request lifecycle spans and
 *                         agent LLM/tool steps on a shared clock.
 *                         Load it in chrome://tracing or Perfetto.
 *
 * Then two cost/SLO walkthroughs on top of the same stack:
 *
 *  1. a per-agent cost report — CoT, ReAct and Reflexion probed on
 *     HotpotQA, each rollout's attributed resource ledger (GPU-s
 *     split prefill/decode, waste, cache savings, KV block-seconds,
 *     energy) rolled up into one table row per agent;
 *
 *  2. an online SLO monitor watching a live engine while periodic
 *     stalls are injected — the burn-rate alert fires mid-run (watch
 *     stderr) and lands in the metrics/trace output.
 *
 * Usage: telemetry_demo [output-prefix]   (default "telemetry_demo")
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/cost_report.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "sim/awaitable.hh"
#include "telemetry/slo.hh"
#include "workload/token_stream.hh"

using namespace agentsim;

namespace
{

/** Submit one generation request and co_return its result. */
sim::Task<serving::GenResult>
submit(serving::LlmEngine &engine, std::uint64_t stream,
       std::int64_t prompt_tokens, std::int64_t out_tokens)
{
    serving::GenRequest req;
    req.prompt = kv::TokenChain(
        engine.config().blockSize,
        workload::makeTokens(workload::streamId(9, "slo_demo") + stream,
                             prompt_tokens));
    req.maxNewTokens = out_tokens;
    co_return co_await engine.generate(std::move(req));
}

/** Periodically extend the next engine step (driver hiccup). */
sim::Task<int>
stallInjector(sim::Simulation &sim, serving::LlmEngine &engine,
              int stalls, double period_s, double stall_s)
{
    for (int i = 0; i < stalls; ++i) {
        co_await sim::delaySec(sim, period_s);
        engine.injectStall(stall_s);
    }
    co_return 0;
}

/** Demo 1: classic serving-run telemetry (trace/metrics/CSV files). */
int
servingDemo(const std::string &prefix)
{
    telemetry::SessionTelemetry session;

    core::ServeConfig cfg;
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = 16;
    cfg.seed = 7;
    cfg.telemetry = &session;
    cfg.spans = &session.spans;
    cfg.timeseries = &session.timeseries;

    const core::ServeResult result = core::runServing(cfg);

    std::printf("ran %d ReAct/HotpotQA requests at %.1f QPS: "
                "p50 %.2f s, p95 %.2f s, %lld engine steps, "
                "prefix-hit rate %.1f%%\n",
                result.completed, cfg.qps, result.p50(), result.p95(),
                static_cast<long long>(result.engineStats.steps),
                100.0 * result.cacheHitRate);
    std::printf("attributed cost of the run: %.2f GPU-s "
                "(%.2f prefill / %.2f decode), %.2f GPU-s saved by "
                "the prefix cache, %.0f KV block-s held\n",
                result.totalCost.gpuSeconds(),
                result.totalCost.prefillGpuSeconds,
                result.totalCost.decodeGpuSeconds,
                result.totalCost.savedPrefillSeconds,
                result.totalCost.kvBlockSeconds);
    std::printf("simulator self-timing: %.0f events in %.3f s wall "
                "(%.0f events/s)\n",
                result.simEventsProcessed, result.simWallSeconds,
                result.simEventsPerSecond);

    std::printf("collected: %zu metric families, %zu time-series "
                "points, %zu trace events\n",
                session.registry.families(),
                session.timeseries.pointsRetained(),
                session.trace.eventCount());

    bool ok = true;
    const std::string prom = prefix + ".prom";
    const std::string csv = prefix + ".csv";
    const std::string json = prefix + ".json";
    ok = telemetry::writeArtifact(prom,
                                  session.registry.renderPrometheus(),
                                  "Prometheus metrics") &&
         ok;
    ok = telemetry::writeArtifact(csv, session.timeseries.renderCsv(),
                                  "time-series CSV") &&
         ok;
    ok = telemetry::writeArtifact(json, session.trace.toJson(),
                                  "Chrome trace") &&
         ok;
    if (!ok)
        return 1;
    std::printf("open the trace in chrome://tracing or "
                "https://ui.perfetto.dev to see why agent steps "
                "stall: the agent track's LLM spans line up with "
                "request queued/prefill/decode phases and engine "
                "iterations.\n");
    return 0;
}

/** Demo 2: per-agent attributed cost report. */
void
costReportDemo()
{
    const int tasks = 8;
    core::CostReport report;
    for (agents::AgentKind kind :
         {agents::AgentKind::CoT, agents::AgentKind::ReAct,
          agents::AgentKind::Reflexion}) {
        core::ServeConfig cfg;
        cfg.closedLoop = true;
        cfg.agent = kind;
        cfg.bench = workload::Benchmark::HotpotQA;
        cfg.engineConfig = core::enginePreset8b();
        cfg.numRequests = tasks;
        cfg.seed = 11;
        const core::ServeResult probe = core::runServing(cfg);
        report.add(std::string(agents::agentName(kind)),
                   probe.totalCost, tasks);
    }
    std::printf("\nEvery engine step's time/energy is split across "
                "the requests in it, so rows are additive real "
                "resources — not overlapping wall-clock:\n");
    report
        .render("Per-agent attributed cost (HotpotQA, 8 tasks each)")
        .print();
}

/** Demo 3: online SLO monitor + burn-rate alert under stalls. */
int
sloAlertDemo(const std::string &prefix)
{
    sim::Simulation sim;
    serving::LlmEngine engine(sim, core::enginePreset8b());

    telemetry::SloConfig slo_cfg;
    slo_cfg.ttftTargetSeconds = 5.0;
    slo_cfg.tbtTargetSeconds = 0.2;
    slo_cfg.e2eTargetSeconds = 120.0;
    slo_cfg.windowSeconds = 5.0;
    telemetry::SloTracker slo(slo_cfg);
    telemetry::TraceSink trace;
    engine.attachTrace(&trace);
    engine.attachSlo(&slo);

    // A steady decode-heavy batch; the injector then stretches one
    // step a second to 10x the TBT target.
    std::vector<sim::Task<serving::GenResult>> gens;
    for (std::uint64_t i = 0; i < 6; ++i)
        gens.push_back(submit(engine, i, 256, 400));
    auto injector = stallInjector(sim, engine, 8, 1.0, 2.0);
    sim.run();

    std::printf("\nSLO monitor after %d stall injections: "
                "TBT p95 %.3f s (target %.2f s), attainment %.1f%%, "
                "%lld violations, %lld burn-rate alert(s) fired\n",
                8, slo.percentile(telemetry::SloMetric::Tbt, 0.95),
                slo_cfg.tbtTargetSeconds,
                100.0 * slo.attainment(telemetry::SloMetric::Tbt),
                static_cast<long long>(
                    slo.violations(telemetry::SloMetric::Tbt)),
                static_cast<long long>(slo.alertsFired()));
    if (slo.alertsFired() == 0) {
        std::fprintf(stderr, "error: expected the injected stalls to "
                             "fire at least one SLO alert\n");
        return 1;
    }

    telemetry::MetricsRegistry registry;
    slo.exportMetrics(registry, sim.now());
    const std::string slo_prom = prefix + "_slo.prom";
    const std::string slo_json = prefix + "_slo.json";
    bool ok = true;
    ok = telemetry::writeArtifact(slo_prom,
                                  registry.renderPrometheus(),
                                  "SLO metrics") &&
         ok;
    ok = telemetry::writeArtifact(slo_json, trace.toJson(),
                                  "SLO Chrome trace") &&
         ok;
    if (!ok)
        return 1;
    std::printf("the slo_alert instants in %s mark where the "
                "burn-rate tripped; the agentsim_slo_* families in "
                "%s carry the windowed percentiles.\n",
                slo_json.c_str(), slo_prom.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string prefix =
        argc > 1 ? argv[1] : "telemetry_demo";

    if (const int rc = servingDemo(prefix); rc != 0)
        return rc;
    costReportDemo();
    if (const int rc = sloAlertDemo(prefix); rc != 0)
        return rc;
    return 0;
}
