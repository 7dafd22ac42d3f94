/**
 * @file
 * Shared helpers for the experiment binaries (one per paper
 * table/figure). Each binary prints the paper-style rows/series for
 * its experiment; EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef AGENTSIM_BENCH_COMMON_HH
#define AGENTSIM_BENCH_COMMON_HH

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hh"
#include "core/perf_report.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/table.hh"
#include "energy/projection.hh"
#include "telemetry/session.hh"

namespace benchutil
{

using namespace agentsim;
using agents::AgentConfig;
using agents::AgentKind;
using core::RequestProbe;
using core::ServeConfig;
using core::ServeResult;
using workload::Benchmark;

/** Tasks per configuration (paper §V: 50 sample questions). */
constexpr int kProbeTasks = 50;

/** Global experiment seed. */
constexpr std::uint64_t kSeed = 2026;

/** All evaluated (agent, benchmark) pairs, in paper order. */
inline std::vector<std::pair<AgentKind, Benchmark>>
supportedPairs()
{
    std::vector<std::pair<AgentKind, Benchmark>> pairs;
    for (Benchmark b : workload::agenticBenchmarks) {
        for (AgentKind a : agents::allAgents) {
            if (agents::agentSupports(a, b))
                pairs.emplace_back(a, b);
        }
    }
    return pairs;
}

/**
 * Shared --trace/--metrics/--csv/--report plumbing for the fig*
 * binaries (--trace-out is accepted as an alias of --trace), plus
 * --flight-record / --incident-dir <dir> for anomaly-triggered
 * incident capture (either flag arms the flight recorder; bundles
 * land under the incident dir, default "incidents").
 *
 *   fig14_qps_sweep --trace out.json --metrics out.prom \
 *                   --csv out.csv --report BENCH_agentsim.json
 *   chaos_slo --flight-record --incident-dir out/incidents
 *
 * --csv attaches the session's time-series store and writes every
 * series it sampled, in series,time_s,value rows (the registry's
 * scalars plus the run's own series, at the store's cadence).
 *
 * Each instrumented run resets the session, so the emitted telemetry
 * files describe the *last* configuration the binary executed (the
 * most loaded sweep point). The perf report is different: the binary
 * accumulates metrics from every sweep point into report() and write()
 * emits them all at once. Binaries opt in per run via apply().
 *
 * All artifact writes go through telemetry::writeArtifact, so a
 * failed write is always loud and write() returning false must make
 * the binary exit non-zero.
 */
class TelemetryCli
{
  public:
    TelemetryCli(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const bool has_value = i + 1 < argc;
            if (std::strcmp(argv[i], "--flight-record") == 0) {
                flightRecord_ = true;
                continue;
            }
            if (std::strcmp(argv[i], "--incident-dir") == 0) {
                if (!has_value) {
                    std::fprintf(stderr,
                                 "warn: --incident-dir requires a "
                                 "directory path; ignored\n");
                    continue;
                }
                incidentDir_ = argv[++i];
                flightRecord_ = true;
                continue;
            }
            if (std::strcmp(argv[i], "--trace") == 0 ||
                std::strcmp(argv[i], "--trace-out") == 0 ||
                std::strcmp(argv[i], "--metrics") == 0 ||
                std::strcmp(argv[i], "--csv") == 0 ||
                std::strcmp(argv[i], "--report") == 0) {
                if (!has_value) {
                    std::fprintf(stderr,
                                 "warn: %s requires a file path; "
                                 "ignored\n",
                                 argv[i]);
                    continue;
                }
                if (std::strcmp(argv[i], "--trace") == 0 ||
                    std::strcmp(argv[i], "--trace-out") == 0)
                    trace_ = argv[++i];
                else if (std::strcmp(argv[i], "--metrics") == 0)
                    metrics_ = argv[++i];
                else if (std::strcmp(argv[i], "--csv") == 0)
                    csv_ = argv[++i];
                else
                    reportPath_ = argv[++i];
            }
        }
        // 65,536 points per series cover nine simulated hours at the
        // default 0.5 s cadence, so --csv holds a whole bench run.
        session_.timeseries.setConfig({.capacity = 1 << 16});
    }

    bool
    enabled() const
    {
        return !trace_.empty() || !metrics_.empty() || !csv_.empty() ||
               flightRecord_;
    }

    /** True when --report <path> was given. */
    bool reportRequested() const { return !reportPath_.empty(); }

    /** True when --flight-record (or --incident-dir) was given. */
    bool flightRecordRequested() const { return flightRecord_; }

    /** Incident bundle directory ("incidents" unless --incident-dir). */
    const std::string &incidentDir() const { return incidentDir_; }

    /** The perf report the binary fills before calling write(). */
    core::PerfReport &report() { return report_; }

    /** Attach (fresh) session telemetry to a serving run. */
    void
    apply(ServeConfig &cfg)
    {
        if (!enabled())
            return;
        session_.reset();
        cfg.telemetry = &session_;
        cfg.spans = &session_.spans;
        if (sampleSeries())
            cfg.timeseries = &session_.timeseries;
        if (flightRecord_) {
            armRecorder();
            cfg.recorder = &session_.recorder;
        }
    }

    /** Attach (fresh) trace sink + registry to a cluster run. */
    void
    apply(core::ClusterConfig &cfg)
    {
        if (!enabled())
            return;
        session_.reset();
        if (!trace_.empty() || flightRecord_)
            cfg.traceSink = &session_.trace;
        cfg.metrics = &session_.registry;
        if (sampleSeries())
            cfg.timeseries = &session_.timeseries;
        if (flightRecord_) {
            armRecorder();
            cfg.recorder = &session_.recorder;
            // Bundles carry a windowed blame table, so incident runs
            // also need the span collector.
            if (cfg.spans == nullptr)
                cfg.spans = &session_.spans;
        }
    }

    /** Write whatever outputs were requested. @return success. */
    bool
    write() const
    {
        bool ok = true;
        if (!trace_.empty()) {
            ok = telemetry::writeArtifact(trace_,
                                          session_.trace.toJson(),
                                          "Chrome trace") &&
                 ok;
        }
        if (!metrics_.empty()) {
            ok = telemetry::writeArtifact(
                     metrics_, session_.registry.renderPrometheus(),
                     "Prometheus metrics") &&
                 ok;
        }
        if (!csv_.empty()) {
            ok = telemetry::writeArtifact(csv_,
                                          session_.timeseries.renderCsv(),
                                          "time-series CSV") &&
                 ok;
        }
        if (!reportPath_.empty()) {
            ok = telemetry::writeArtifact(reportPath_,
                                          report_.renderJson(),
                                          "perf report") &&
                 ok;
        }
        return ok;
    }

    const telemetry::SessionTelemetry &session() const
    {
        return session_;
    }

  private:
    /** Whether runs sample the time-series store (--csv writes it;
     *  incident bundles carry windows of it). */
    bool sampleSeries() const { return !csv_.empty() || flightRecord_; }

    /** Point the (freshly reset) recorder at the incident dir. */
    void
    armRecorder()
    {
        telemetry::FlightRecorder::Config rc;
        rc.incidentDir = incidentDir_;
        session_.recorder.setConfig(rc);
    }

    std::string trace_;
    std::string metrics_;
    std::string csv_;
    std::string reportPath_;
    bool flightRecord_ = false;
    std::string incidentDir_ = "incidents";
    telemetry::SessionTelemetry session_;
    core::PerfReport report_;
};

/**
 * Fold a serving run's headline metrics into @p report under
 * @p prefix, plus the run's simulator self-timing into the shared
 * sim_* totals (accumulated across sweep points).
 */
inline void
reportServePoint(core::PerfReport &report, const std::string &prefix,
                 const ServeResult &r)
{
    report.set(prefix + "_p50_seconds", r.p50());
    report.set(prefix + "_p95_seconds", r.p95());
    report.set(prefix + "_throughput_qps", r.throughputQps());
    report.set(prefix + "_energy_wh", r.energyWh);
    report.set(prefix + "_gpu_busy_seconds",
               r.engineStats.busySeconds);
    // KV-tier effectiveness: hit rate and restored tokens are wins
    // the diff gate holds (higher is better); demotions are context.
    report.set(prefix + "_kv_prefix_hit_rate",
               r.cacheStats.hitRate());
    report.set(prefix + "_kv_tier_restored_tokens",
               static_cast<double>(r.cacheStats.dram.restoredTokens +
                                   r.cacheStats.nvme.restoredTokens));
    report.set(prefix + "_kv_tier_demotions",
               static_cast<double>(r.cacheStats.dram.demotedBlocks +
                                   r.cacheStats.nvme.demotedBlocks));

    auto bump = [&](const std::string &name, double delta) {
        report.set(name, report.get(name).value_or(0.0) + delta);
    };
    bump("sim_wall_seconds", r.simWallSeconds);
    bump("sim_events_processed", r.simEventsProcessed);
    const double wall = report.get("sim_wall_seconds").value_or(0.0);
    const double events =
        report.get("sim_events_processed").value_or(0.0);
    report.set("sim_events_per_second",
               wall > 0.0 ? events / wall : 0.0);
}

/**
 * Default single-request probe configuration: a closed-loop agent
 * run that keeps one window record per task.
 */
inline ServeConfig
defaultProbe(AgentKind agent, Benchmark bench, bool prefix_caching = true,
             bool use70b = false, int tasks = kProbeTasks)
{
    ServeConfig cfg;
    cfg.closedLoop = true;
    cfg.agent = agent;
    cfg.bench = bench;
    cfg.engineConfig =
        use70b ? core::enginePreset70b() : core::enginePreset8b();
    cfg.engineConfig.enablePrefixCaching = prefix_caching;
    cfg.numRequests = tasks;
    cfg.seed = kSeed;
    return cfg;
}

/** Closed-loop single-stream ShareGPT run (one request at a time). */
inline ServeResult
shareGptClosedLoop(int requests, bool use70b = false,
                   bool prefix_caching = true)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig =
        use70b ? core::enginePreset70b() : core::enginePreset8b();
    cfg.engineConfig.enablePrefixCaching = prefix_caching;
    cfg.closedLoop = true;
    cfg.numRequests = requests;
    cfg.seed = kSeed;
    return core::runServing(cfg);
}

/**
 * Open-loop serving run at a given QPS. The trailing block counts
 * enable the DRAM / NVMe KV spill tiers (0 = disabled, the default —
 * identical to the pre-tier engine).
 */
inline ServeResult
serveAt(double qps, bool chatbot, AgentKind agent, Benchmark bench,
        int requests, bool prefix_caching = true,
        std::int64_t kv_pool_bytes = 0,
        TelemetryCli *telemetry = nullptr,
        std::int64_t dram_cache_blocks = 0,
        std::int64_t nvme_cache_blocks = 0)
{
    ServeConfig cfg;
    cfg.chatbot = chatbot;
    cfg.agent = agent;
    cfg.bench = bench;
    cfg.engineConfig = core::enginePreset8b();
    cfg.engineConfig.enablePrefixCaching = prefix_caching;
    cfg.engineConfig.kvPoolBytes = kv_pool_bytes;
    cfg.engineConfig.hostCacheBlocks = dram_cache_blocks;
    cfg.engineConfig.nvmeCacheBlocks = nvme_cache_blocks;
    cfg.qps = qps;
    cfg.numRequests = requests;
    cfg.seed = kSeed;
    if (telemetry != nullptr)
        telemetry->apply(cfg);
    return core::runServing(cfg);
}

/** Display name for an (agent, benchmark) pair. */
inline std::string
pairName(AgentKind agent, Benchmark bench)
{
    return std::string(workload::benchmarkName(bench)) + "/" +
           std::string(agents::agentName(agent));
}

/** Per-query energy (Wh) of ShareGPT single-stream serving. */
inline double
shareGptWhPerQuery(bool use70b, int requests = 100)
{
    const ServeResult r = shareGptClosedLoop(requests, use70b);
    return r.energyWh / requests;
}

} // namespace benchutil

#endif // AGENTSIM_BENCH_COMMON_HH
