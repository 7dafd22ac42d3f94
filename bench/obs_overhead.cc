/**
 * @file
 * Observability-overhead micro-bench: what the full telemetry stack
 * (Chrome trace sink, causal spans, windowed time-series sampling and
 * the flight recorder's retroactive rings) costs in host wall time on
 * a fixed serving workload.
 *
 * The same ReAct serving run executes bare and fully instrumented
 * (several repetitions each, best-of to shed scheduler noise), and the
 * binary reports
 *
 *   telemetry_overhead_pct = (instrumented - bare) / bare * 100
 *
 * into the perf report (informational — host timing never gates a
 * diff). It also enforces the observer-purity contract: the
 * instrumented run must produce byte-for-byte the same request-level
 * results as the bare run, or the binary exits non-zero.
 *
 *   obs_overhead [--report out.json] [--smoke]
 */

#include <cstdio>
#include <cstring>

#include "common.hh"

namespace
{

using namespace benchutil;

ServeConfig
makeWorkload(int requests)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = requests;
    cfg.seed = kSeed;
    return cfg;
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
    telemetry.report().setGenerator("obs_overhead");

    const int requests = smoke ? 40 : 120;
    const int reps = smoke ? 2 : 3;

    // Bare runs: no telemetry at all.
    ServeResult bare;
    double bare_wall = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        auto cfg = makeWorkload(requests);
        const auto r = core::runServing(cfg);
        if (rep == 0 || r.simWallSeconds < bare_wall)
            bare_wall = r.simWallSeconds;
        bare = r;
    }

    // Instrumented runs: trace sink + spans + time-series sampler +
    // flight-recorder rings all live (no SLO tracker, so no incident
    // is ever dumped — this measures the always-on cost).
    telemetry::SessionTelemetry session;
    ServeResult instr;
    double instr_wall = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        auto cfg = makeWorkload(requests);
        session.reset();
        cfg.telemetry = &session;
        cfg.recorder = &session.recorder;
        cfg.timeseries = &session.timeseries;
        const auto r = core::runServing(cfg);
        if (rep == 0 || r.simWallSeconds < instr_wall)
            instr_wall = r.simWallSeconds;
        instr = r;
    }

    const double overhead_pct =
        bare_wall > 0.0 ? (instr_wall - bare_wall) / bare_wall * 100.0
                        : 0.0;

    core::Table table("Observability overhead (ReAct/HotpotQA, "
                      "open loop)");
    table.header({"Mode", "Wall", "Events", "p50", "p95", "GPU busy"});
    table.row({"bare", sim::strfmt("%.3f s", bare_wall),
               core::fmtCount(bare.simEventsProcessed),
               core::fmtSeconds(bare.p50()),
               core::fmtSeconds(bare.p95()),
               core::fmtSeconds(bare.engineStats.busySeconds)});
    table.row({"instrumented", sim::strfmt("%.3f s", instr_wall),
               core::fmtCount(instr.simEventsProcessed),
               core::fmtSeconds(instr.p50()),
               core::fmtSeconds(instr.p95()),
               core::fmtSeconds(instr.engineStats.busySeconds)});
    table.print();

    std::printf("\nTelemetry overhead: %.1f%% host wall time "
                "(best of %d; trace %zu events, %lld spans, "
                "%zu time-series points, recorder rings %zu/%zu).\n",
                overhead_pct, reps, session.trace.eventCount(),
                static_cast<long long>(session.spans.requestsFinished()),
                session.timeseries.pointsRetained(),
                session.recorder.traceEventsRetained(),
                session.recorder.spansRetained());

    // Observer purity: instrumentation must not change the sim.
    const bool identical =
        bare.completed == instr.completed &&
        bare.solved == instr.solved && bare.p50() == instr.p50() &&
        bare.p95() == instr.p95() &&
        bare.engineStats.busySeconds == instr.engineStats.busySeconds &&
        bare.energyWh == instr.energyWh;
    if (!identical) {
        std::fprintf(stderr,
                     "error: instrumented run diverged from bare run "
                     "(telemetry is supposed to be a pure observer)\n");
        return 1;
    }
    std::printf("Observer purity: instrumented run bit-identical to "
                "bare run (completed/solved/p50/p95/GPU busy/energy).\n");

    if (telemetry.reportRequested()) {
        auto &rep = telemetry.report();
        rep.set("telemetry_overhead_pct", overhead_pct);
        rep.set("sim_bare_wall_seconds", bare_wall);
        rep.set("sim_instrumented_wall_seconds", instr_wall);
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
