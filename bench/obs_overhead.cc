/**
 * @file
 * Observability-overhead micro-bench: what each observer (Chrome
 * trace sink, flight recorder, causal spans, windowed time-series
 * sampling) and the full stack cost in host wall time on a fixed
 * serving workload.
 *
 * A row is a batch of ReAct serving runs (distinct seeds), run bare,
 * with one observer at a time, and fully instrumented; its wall time
 * is the batch's summed in-run time, best of several repetitions to
 * shed scheduler noise (each repetition runs every row once). The
 * batch is sized so the bare row takes over a second on a 4-thread
 * Xeon host, while each run keeps its trace log small. The binary
 * reports each row's overhead over bare plus
 *
 *   telemetry_overhead_pct = (instrumented - bare) / bare * 100
 *
 * into the perf report (informational — host timing never gates a
 * diff). Each observer is attached on its own: the trace rows price
 * the trace sink alone, the spans row the span collector alone. The
 * binary also enforces the observer-purity contract: every observed
 * run must produce byte-for-byte the same request-level results as
 * its bare run, or the binary exits non-zero.
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
makeWorkload(int requests, std::uint64_t seed)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = requests;
    cfg.seed = seed;
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

    const int requests = smoke ? 40 : 1000;
    const int runs = smoke ? 1 : 20;
    const int reps = smoke ? 2 : 3;

    // One row per observer on its own, then the full stack (no SLO
    // tracker, so no incident is ever dumped — the rows measure the
    // always-on cost). The full stack runs last, so the session still
    // holds its last run's state for the summary below.
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
        {"all observers", "instrumented", true, true, true, true},
    };

    // Each repetition runs every row once, so a drift in host speed
    // during the invocation reaches every row alike.
    telemetry::SessionTelemetry session;
    std::vector<double> walls(modes.size(), 0.0);
    std::vector<std::vector<ServeResult>> results(modes.size());
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t m = 0; m < modes.size(); ++m) {
            const Mode &mode = modes[m];
            double wall = 0.0;
            results[m].clear();
            for (int run = 0; run < runs; ++run) {
                auto cfg = makeWorkload(
                    requests, kSeed + static_cast<std::uint64_t>(run));
                session.reset();
                if (mode.trace)
                    cfg.telemetry = &session;
                if (mode.recorder)
                    cfg.recorder = &session.recorder;
                if (mode.spans)
                    cfg.spans = &session.spans;
                if (mode.timeseries)
                    cfg.timeseries = &session.timeseries;
                results[m].push_back(core::runServing(cfg));
                wall += results[m].back().simWallSeconds;
            }
            if (rep == 0 || wall < walls[m])
                walls[m] = wall;
        }
    }

    const double bare_wall = walls.front();
    auto overhead = [&](double wall) {
        return bare_wall > 0.0 ? (wall - bare_wall) / bare_wall * 100.0
                               : 0.0;
    };
    const double overhead_pct = overhead(walls.back());

    core::Table table("Observability overhead (ReAct/HotpotQA, "
                      "open loop)");
    table.header({"Mode", "Wall", "Overhead", "Events", "GPU busy"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
        double events = 0.0;
        double busy = 0.0;
        for (const ServeResult &r : results[i]) {
            events += r.simEventsProcessed;
            busy += r.engineStats.busySeconds;
        }
        table.row({modes[i].label, sim::strfmt("%.3f s", walls[i]),
                   i == 0 ? std::string("-")
                          : sim::strfmt("%+.1f%%", overhead(walls[i])),
                   core::fmtCount(events), core::fmtSeconds(busy)});
    }
    table.print();

    std::printf("\nTelemetry overhead: %.1f%% host wall time over %d "
                "runs of %d requests (best of %d; last run: trace %zu "
                "events, %lld spans, %zu time-series points, recorder "
                "rings %zu/%zu).\n",
                overhead_pct, runs, requests, reps,
                session.trace.eventCount(),
                static_cast<long long>(session.spans.requestsFinished()),
                session.timeseries.pointsRetained(),
                session.recorder.traceEventsRetained(),
                session.recorder.spansRetained());

    // Observer purity: instrumentation must not change the sim.
    for (std::size_t i = 1; i < modes.size(); ++i) {
        for (int run = 0; run < runs; ++run) {
            const ServeResult &bare = results.front()[run];
            const ServeResult &r = results[i][run];
            const bool identical =
                bare.completed == r.completed &&
                bare.solved == r.solved && bare.p50() == r.p50() &&
                bare.p95() == r.p95() &&
                bare.engineStats.busySeconds ==
                    r.engineStats.busySeconds &&
                bare.energyWh == r.energyWh;
            if (!identical) {
                std::fprintf(stderr,
                             "error: run %d of the %s row diverged "
                             "from the bare run (telemetry is "
                             "supposed to be a pure observer)\n",
                             run, modes[i].label);
                return 1;
            }
        }
    }
    std::printf("Observer purity: every observed run bit-identical to "
                "its bare run (completed/solved/p50/p95/GPU busy/"
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
