/**
 * @file
 * Rolling-restart sweep — what planned node churn costs an agentic
 * serving cluster, and what graceful drain + live KV migration buys
 * back. A 3-node cluster serves the paper's mixed agent + chatbot
 * workload while a maintenance schedule takes nodes out of service
 * round-robin; the sweep crosses offered load with the takedown
 * discipline:
 *
 *   crash         hard restart: in-flight requests dropped, KV lost;
 *                 clients retry from scratch on a cache-cold peer.
 *   drain         admissions stop, running requests finish up to a
 *                 deadline, leftovers are cancelled (crash semantics).
 *   drain+migrate leftovers live-migrate: the KV chain crosses the
 *                 interconnect and decode resumes warm on the target.
 *
 * Reported per point: goodput, wasted GPU-s (recompute waste + prefill
 * thrown away with cancelled requests), migration traffic, TTFT/E2E
 * attainment, tail latency, breaker and brownout activity. Health-
 * aware routing and the overload brownout are on throughout, so the
 * Chrome trace of the last point (--trace) shows breaker transitions
 * and brownout level changes alongside drain/migration instants.
 *
 *   rolling_restart [--trace out.json] [--metrics out.prom]
 *                   [--report out.json]
 */

#include <cstdio>

#include "common.hh"
#include "core/cluster.hh"
#include "sim/strfmt.hh"
#include "telemetry/slo.hh"

namespace
{

using namespace benchutil;

core::ClusterConfig
baseConfig()
{
    core::ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = core::RoutePolicy::LeastLoaded;

    core::WorkloadSpec react_hotpot;
    react_hotpot.agent = AgentKind::ReAct;
    react_hotpot.bench = Benchmark::HotpotQA;
    cfg.mix.push_back(react_hotpot);

    core::WorkloadSpec reflexion_shop;
    reflexion_shop.agent = AgentKind::Reflexion;
    reflexion_shop.bench = Benchmark::WebShop;
    cfg.mix.push_back(reflexion_shop);

    core::WorkloadSpec chat;
    chat.chatbot = true;
    cfg.mix.push_back(chat);

    cfg.numRequests = 150;
    cfg.seed = kSeed;

    // Chat requests carry an SLO deadline, so decode progress lost to
    // a hard restart is not free: the retry may no longer make it.
    cfg.chatDeadlineSeconds = 90.0;

    // One node leaves service every 20 s — an aggressive rolling
    // deploy, so every sweep point sees several cycles. The short
    // drain deadline leaves real in-flight work for the migrator.
    cfg.maintenance.periodSeconds = 20.0;
    cfg.maintenance.drainDeadlineSeconds = 2.0;
    cfg.maintenance.downtimeSeconds = 5.0;
    return cfg;
}

telemetry::SloConfig
sloConfig()
{
    telemetry::SloConfig slo;
    slo.ttftTargetSeconds = 15.0;
    slo.tbtTargetSeconds = 0.5;
    slo.e2eTargetSeconds = 120.0;
    slo.windowSeconds = 20.0;
    return slo;
}

/** GPU-s of work destroyed by the takedowns: preemption/migration
 *  recompute waste plus prefill lost with cancelled requests. */
double
wastedGpuSeconds(const core::ClusterResult &r)
{
    double wasted = 0.0;
    for (const auto &node : r.nodes) {
        wasted += node.engineStats.wastedSeconds +
                  node.engineStats.lostPrefillSeconds;
    }
    return wasted;
}

std::string
pointKey(double qps, sim::MaintenanceMode mode)
{
    const char *m = mode == sim::MaintenanceMode::Crash ? "crash"
                    : mode == sim::MaintenanceMode::Drain
                        ? "drain"
                        : "drain_migrate";
    return sim::strfmt("qps_%dp%d_%s", static_cast<int>(qps),
                       static_cast<int>(qps * 10) % 10, m);
}

} // namespace

int
main(int argc, char **argv)
{
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("rolling_restart");

    // --- Sweep 1: takedown discipline vs goodput and waste. --------
    // Brownout stays off here so every mode faces the identical
    // offered work; its effect is isolated in sweep 2.
    core::Table table("Rolling restarts: crash vs drain vs "
                      "drain+migrate (3 nodes, 20s period)");
    table.header({"QPS", "Mode", "Cycles", "Goodput", "Wasted GPU-s",
                  "Migrated", "Fallbacks", "p50", "p99",
                  "TTFT attain", "Breaker opens"});

    const double qps_points[] = {2.0, 3.0};
    const sim::MaintenanceMode modes[] = {
        sim::MaintenanceMode::Crash,
        sim::MaintenanceMode::Drain,
        sim::MaintenanceMode::DrainMigrate,
    };
    for (double qps : qps_points) {
        for (sim::MaintenanceMode mode : modes) {
            auto cfg = baseConfig();
            cfg.qps = qps;
            cfg.maintenance.mode = mode;
            telemetry::SloTracker slo(sloConfig());
            cfg.slo = &slo;
            const auto r = core::runCluster(cfg);
            const serving::EngineStats totals = r.engineTotals();
            table.row(
                {core::fmtCount(qps),
                 std::string(sim::maintenanceModeName(mode)),
                 core::fmtCount(static_cast<double>(
                     r.maintenanceStats.cycles)),
                 core::fmtPercent(r.goodputFraction()),
                 core::fmtSeconds(wastedGpuSeconds(r)),
                 core::fmtCount(
                     static_cast<double>(totals.requestsMigratedOut)),
                 core::fmtCount(
                     static_cast<double>(totals.migrationFallbacks)),
                 core::fmtSeconds(r.p50()), core::fmtSeconds(r.p99()),
                 core::fmtPercent(
                     slo.attainment(telemetry::SloMetric::Ttft)),
                 core::fmtCount(static_cast<double>(r.breakerOpens))});
            if (telemetry.reportRequested()) {
                const std::string prefix = pointKey(qps, mode);
                auto &rep = telemetry.report();
                rep.set(prefix + "_goodput", r.goodputFraction());
                rep.set(prefix + "_wasted_gpu_seconds",
                        wastedGpuSeconds(r));
                rep.set(prefix + "_p99_seconds", r.p99());
                rep.set(prefix + "_ttft_attainment",
                        slo.attainment(telemetry::SloMetric::Ttft));
                rep.set(prefix + "_migrated",
                        static_cast<double>(totals.requestsMigratedOut));
                rep.set(prefix + "_breaker_opens",
                        static_cast<double>(r.breakerOpens));
            }
        }
    }
    table.print();

    // --- Sweep 2: overload brownout under unplanned churn. ---------
    // The rolling deploy keeps running (drain+migrate), but random
    // node crashes land on top of it: retried rollouts saturate the
    // survivors and burn the SLO budget. The brownout watches KV
    // pressure and burn rate and trims test-time-scaling width (then
    // downgrades deadline-less agents) instead of letting whole
    // requests miss deadlines.
    core::Table brownout_table(
        "Overload brownout: drain+migrate deploys + chaos crashes "
        "(QPS 3)");
    brownout_table.header({"Brownout", "Goodput", "Timed out",
                           "Degraded rollouts", "Max level", "p99",
                           "E2E attain"});
    for (bool enabled : {false, true}) {
        auto cfg = baseConfig();
        cfg.qps = qps_points[1];
        cfg.maintenance.mode = sim::MaintenanceMode::DrainMigrate;
        cfg.faults.nodeMtbfSeconds = 40.0;
        cfg.faults.nodeRestartMeanSeconds = 5.0;
        cfg.brownout.enabled = enabled;
        telemetry::SloTracker slo(sloConfig());
        cfg.slo = &slo;
        // Telemetry files capture the brownout-on point: the Chrome
        // trace holds drain/migration instants, breaker transitions
        // and brownout level changes on the resilience track.
        if (enabled)
            telemetry.apply(cfg);
        const auto r = core::runCluster(cfg);
        brownout_table.row(
            {enabled ? "on" : "off",
             core::fmtPercent(r.goodputFraction()),
             core::fmtCount(r.timedOut),
             core::fmtCount(
                 static_cast<double>(r.brownoutDegradedRollouts)),
             core::fmtCount(static_cast<double>(r.brownoutMaxLevel)),
             core::fmtSeconds(r.p99()),
             core::fmtPercent(
                 slo.attainment(telemetry::SloMetric::E2e))});
        if (telemetry.reportRequested()) {
            const std::string prefix = enabled
                                           ? std::string("brownout_on")
                                           : std::string("brownout_off");
            auto &rep = telemetry.report();
            rep.set(prefix + "_goodput", r.goodputFraction());
            rep.set(prefix + "_p99_seconds", r.p99());
            rep.set(prefix + "_degraded_rollouts",
                    static_cast<double>(r.brownoutDegradedRollouts));
        }
    }
    brownout_table.print();

    std::printf(
        "\nDesign note: a hard restart destroys every in-flight "
        "rollout on the node — the client retries from scratch on a "
        "cache-cold peer, so the cluster pays the accumulated "
        "context's prefill twice and the tail pays backoff plus "
        "queueing. Draining first lets most requests finish in "
        "place, and live-migrating the leftovers turns the residual "
        "loss into a bounded interconnect transfer: goodput holds "
        "and the wasted-GPU bill collapses. Health-aware routing "
        "keeps retries off the node being cycled, and the brownout "
        "trims test-time-scaling width instead of shedding whole "
        "requests when the survivors saturate.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
