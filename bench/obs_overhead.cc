/**
 * @file
 * Observability-overhead micro-bench: what each observer (Chrome
 * trace sink, flight recorder, causal spans, windowed time-series
 * sampling) and the full stack cost in host wall time on a fixed
 * serving workload.
 *
 * The same ReAct serving run executes bare, with one observer at a
 * time, and fully instrumented (several repetitions each, best-of to
 * shed scheduler noise), and the binary reports each row's overhead
 * over bare plus
 *
 *   telemetry_overhead_pct = (instrumented - bare) / bare * 100
 *
 * into the perf report (informational — host timing never gates a
 * diff). runServing attaches the session's span collector along with
 * its trace sink, so the trace rows include the spans row's cost. The
 * binary also enforces the observer-purity contract: every observed
 * run must produce byte-for-byte the same request-level results as
 * the bare run, or the binary exits non-zero.
 *
 *   obs_overhead [--report out.json] [--smoke]
 */

#include <cstdio>
#include <cstring>
#include <vector>

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

    // One row per observer on its own, then the full stack (no SLO
    // tracker, so no incident is ever dumped — the rows measure the
    // always-on cost). The full stack runs last, so the session still
    // holds its state for the summary below.
    struct Mode
    {
        const char *label;
        const char *key;
        bool trace;
        bool recorder;
        bool spans;
        bool timeseries;
    };
    const std::vector<Mode> modes = {
        {"bare", "bare", false, false, false, false},
        {"+trace", "trace", true, false, false, false},
        {"+trace+recorder", "trace_recorder", true, true, false, false},
        {"+spans", "spans", false, false, true, false},
        {"+time series", "timeseries", false, false, false, true},
        {"all observers", "instrumented", true, true, false, true},
    };

    telemetry::SessionTelemetry session;
    std::vector<double> walls;
    std::vector<ServeResult> results;
    for (const Mode &mode : modes) {
        double best = 0.0;
        ServeResult result;
        for (int rep = 0; rep < reps; ++rep) {
            auto cfg = makeWorkload(requests);
            session.reset();
            if (mode.trace)
                cfg.telemetry = &session;
            if (mode.recorder)
                cfg.recorder = &session.recorder;
            if (mode.spans)
                cfg.spans = &session.spans;
            if (mode.timeseries)
                cfg.timeseries = &session.timeseries;
            result = core::runServing(cfg);
            if (rep == 0 || result.simWallSeconds < best)
                best = result.simWallSeconds;
        }
        walls.push_back(best);
        results.push_back(result);
    }

    const double bare_wall = walls.front();
    auto overhead = [&](double wall) {
        return bare_wall > 0.0 ? (wall - bare_wall) / bare_wall * 100.0
                               : 0.0;
    };
    const double overhead_pct = overhead(walls.back());

    core::Table table("Observability overhead (ReAct/HotpotQA, "
                      "open loop)");
    table.header({"Mode", "Wall", "Overhead", "Events", "p50", "p95",
                  "GPU busy"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
        const ServeResult &r = results[i];
        table.row({modes[i].label, sim::strfmt("%.3f s", walls[i]),
                   i == 0 ? std::string("-")
                          : sim::strfmt("%+.1f%%", overhead(walls[i])),
                   core::fmtCount(r.simEventsProcessed),
                   core::fmtSeconds(r.p50()), core::fmtSeconds(r.p95()),
                   core::fmtSeconds(r.engineStats.busySeconds)});
    }
    table.print();

    std::printf("\nTelemetry overhead: %.1f%% host wall time "
                "(best of %d; trace %zu events, %lld spans, "
                "%zu time-series points, recorder rings %zu/%zu).\n"
                "runServing attaches the session's span collector with "
                "its trace sink, so both trace rows include the spans "
                "row.\n",
                overhead_pct, reps, session.trace.eventCount(),
                static_cast<long long>(session.spans.requestsFinished()),
                session.timeseries.pointsRetained(),
                session.recorder.traceEventsRetained(),
                session.recorder.spansRetained());

    // Observer purity: instrumentation must not change the sim.
    const ServeResult &bare = results.front();
    for (std::size_t i = 1; i < modes.size(); ++i) {
        const ServeResult &r = results[i];
        const bool identical =
            bare.completed == r.completed && bare.solved == r.solved &&
            bare.p50() == r.p50() && bare.p95() == r.p95() &&
            bare.engineStats.busySeconds == r.engineStats.busySeconds &&
            bare.energyWh == r.energyWh;
        if (!identical) {
            std::fprintf(stderr,
                         "error: the %s run diverged from the bare run "
                         "(telemetry is supposed to be a pure "
                         "observer)\n",
                         modes[i].label);
            return 1;
        }
    }
    std::printf("Observer purity: every observed run bit-identical to "
                "the bare run (completed/solved/p50/p95/GPU busy/"
                "energy).\n");

    if (telemetry.reportRequested()) {
        auto &rep = telemetry.report();
        rep.set("telemetry_overhead_pct", overhead_pct);
        for (std::size_t i = 0; i < modes.size(); ++i) {
            rep.set(sim::strfmt("sim_%s_wall_seconds", modes[i].key),
                    walls[i]);
        }
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
