/**
 * @file
 * Episode recovery under chaos — checkpoint-resume vs full-retry on
 * the chaos_slo crash schedule. The paper's §V finding (p95 climbs
 * 8.5x with iteration budget) makes agent episodes long and deep, so
 * a node crash near the end of a rollout throws away almost the whole
 * episode of GPU work under PR 2's restart-from-scratch retry. This
 * bench runs the same seeded fault schedule twice — checkpointing off
 * (baseline) and on — and compares recomputed GPU-seconds, goodput
 * and tail latency.
 *
 *   chaos_recovery [--trace out.json] [--metrics out.prom]
 *                  [--report out.json] [--smoke]
 *
 * Gates (exit non-zero on violation):
 *  - the injected fault schedule is identical across the two runs
 *    (checkpointing must not perturb the fault/retry streams);
 *  - checkpoint-resume cuts recomputed GPU-seconds by >= 50%;
 *  - goodput does not regress vs the full-retry baseline.
 *
 * The cost report prints attributed episode cost with the RECOVERED
 * footer rows splitting saved work by failure cause. --smoke shrinks
 * the run for CI (the asan chaos job runs it on every push).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common.hh"
#include "core/cluster.hh"
#include "core/cost_report.hh"
#include "sim/strfmt.hh"

namespace
{

using namespace benchutil;

core::ClusterConfig
baseConfig(bool smoke)
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

    cfg.qps = 3.0;
    cfg.numRequests = smoke ? 60 : 150;
    cfg.seed = kSeed;

    // The chaos_slo crash schedule's hostile point: one crash per
    // node-minute, five-second restarts. Deep rollouts routinely die
    // mid-flight.
    cfg.faults.nodeMtbfSeconds = 60.0;
    cfg.faults.nodeRestartMeanSeconds = 5.0;
    return cfg;
}

core::ClusterConfig
recoveryConfig(bool smoke, int every_iterations)
{
    auto cfg = baseConfig(smoke);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.everyIterations = every_iterations;
    cfg.checkpoint.minIterations = 1;
    return cfg;
}

void
addRow(core::Table &table, const char *label,
       const core::ClusterResult &r)
{
    table.row(
        {label,
         core::fmtCount(static_cast<double>(r.faultStats.crashes)),
         core::fmtCount(r.retries),
         core::fmtCount(static_cast<double>(r.recovery.resumes)),
         core::fmtSeconds(r.recovery.lostGpuSeconds),
         core::fmtSeconds(r.recovery.recoveredGpuSeconds),
         core::fmtPercent(r.goodputFraction()),
         core::fmtSeconds(r.p95()), core::fmtSeconds(r.p99())});
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("chaos_recovery");

    core::Table table("Chaos recovery: checkpoint-resume vs "
                      "full-retry (same seeded crash schedule)");
    table.header({"Config", "Crashes", "Retries", "Resumes",
                  "Recomputed", "Recovered", "Goodput", "p95", "p99"});

    // Baseline: PR 2's retry discipline — every retryable failure
    // replays the episode from scratch on the next pick.
    const auto base = core::runCluster(baseConfig(smoke));
    addRow(table, "full-retry", base);

    // Checkpoint-resume, journaling every completed iteration. The
    // telemetry session captures this run.
    auto ckpt_cfg = recoveryConfig(smoke, /*every_iterations=*/1);
    telemetry.apply(ckpt_cfg);
    const auto ckpt = core::runCluster(ckpt_cfg);
    addRow(table, "checkpoint k=1", ckpt);

    // Policy-knob sweep: journal every k-th iteration — less snapshot
    // bandwidth, more replayed tail per crash.
    if (!smoke) {
        for (int k : {2, 4}) {
            const auto r =
                core::runCluster(recoveryConfig(smoke, k));
            addRow(table,
                   sim::strfmt("checkpoint k=%d", k).c_str(), r);
        }
    }
    table.print();

    std::printf(
        "\nCheckpoint store: %lld snapshots, %.1f MB journaled "
        "(delta), %.3f s background write, %lld resumes (%lld KV "
        "restores, %lld cold fallbacks, %.3f s restore wire).\n",
        static_cast<long long>(ckpt.recovery.checkpointsTaken),
        static_cast<double>(ckpt.recovery.bytesWritten) / 1e6,
        ckpt.recovery.snapshotSeconds,
        static_cast<long long>(ckpt.recovery.resumes),
        static_cast<long long>(ckpt.recovery.kvRestores),
        static_cast<long long>(ckpt.recovery.coldFallbacks),
        ckpt.recovery.restoreSeconds);

    // Attributed episode cost with the per-cause recovered-work
    // footer (satellite: cost report surfaces what resume saved).
    core::CostReport cost;
    cost.add("episodes (full-retry)", base.episodeCost,
             base.completed);
    cost.add("episodes (checkpoint)", ckpt.episodeCost,
             ckpt.completed);
    for (std::size_t c = 0; c < serving::RecoveryCause::Count; ++c) {
        cost.addRecoveredGpuSeconds(serving::RecoveryCause::names[c],
                                    ckpt.recovery.recoveredByCause[c]);
    }
    cost.render("Episode cost attribution").print();

    const double lost_base = base.recovery.lostGpuSeconds;
    const double lost_ckpt = ckpt.recovery.lostGpuSeconds;
    const double reduction =
        lost_base > 0.0 ? 1.0 - lost_ckpt / lost_base : 0.0;
    std::printf("\nRecomputed GPU-seconds: %.3f -> %.3f (%.0f%% "
                "reduction); goodput %.1f%% -> %.1f%%.\n",
                lost_base, lost_ckpt, reduction * 100.0,
                base.goodputFraction() * 100.0,
                ckpt.goodputFraction() * 100.0);

    if (telemetry.reportRequested()) {
        auto &rep = telemetry.report();
        rep.set("baseline_lost_gpu_seconds", lost_base);
        rep.set("recovery_lost_gpu_seconds", lost_ckpt);
        rep.set("recovery_recovered_gpu_seconds",
                ckpt.recovery.recoveredGpuSeconds);
        rep.set("baseline_goodput", base.goodputFraction());
        rep.set("recovery_goodput", ckpt.goodputFraction());
        rep.set("recovery_resumes",
                static_cast<double>(ckpt.recovery.resumes));
        rep.set("recovery_checkpoints",
                static_cast<double>(ckpt.recovery.checkpointsTaken));
        rep.set("recovery_p99_seconds", ckpt.p99());
    }
    if (!telemetry.write())
        return 1;

    // --- Gates. ----------------------------------------------------
    // Fault determinism: a faster (resumed) run may drain before the
    // last crash fires, but every crash both runs lived through must
    // land on the identical sim time.
    const auto &crash_base = base.faultStats.crashSeconds;
    const auto &crash_ckpt = ckpt.faultStats.crashSeconds;
    const std::size_t common =
        std::min(crash_base.size(), crash_ckpt.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (crash_base[i] != crash_ckpt[i]) {
            std::fprintf(stderr,
                         "error: crash %zu moved (%.6f s vs %.6f s) "
                         "— checkpointing perturbed the fault "
                         "streams\n",
                         i, crash_base[i], crash_ckpt[i]);
            return 1;
        }
    }
    if (common == 0 ||
        base.faultStats.stallSecondsInjected !=
            ckpt.faultStats.stallSecondsInjected) {
        std::fprintf(stderr, "error: fault schedules do not overlap "
                             "or stall totals diverged\n");
        return 1;
    }
    if (base.recovery.recoveredGpuSeconds != 0.0) {
        std::fprintf(stderr,
                     "error: baseline run reports recovered work "
                     "with checkpointing disabled\n");
        return 1;
    }
    if (lost_base > 0.0 && lost_ckpt > 0.5 * lost_base) {
        std::fprintf(stderr,
                     "error: recomputed GPU-seconds %.3f > 50%% of "
                     "the full-retry baseline %.3f\n",
                     lost_ckpt, lost_base);
        return 1;
    }
    if (ckpt.goodputFraction() < base.goodputFraction()) {
        std::fprintf(stderr,
                     "error: goodput regressed vs full-retry "
                     "(%.3f < %.3f)\n",
                     ckpt.goodputFraction(), base.goodputFraction());
        return 1;
    }
    return 0;
}
