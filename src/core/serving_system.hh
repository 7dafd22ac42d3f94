/**
 * @file
 * The agent serving system of paper Fig 13: an open-loop Poisson
 * request driver feeding asynchronous workers which run agent
 * workflows (or single-turn chatbot requests) against one shared
 * continuous-batching LLM engine and a shared tool belt. In closed
 * loop it is also the single-request probe of §IV-A/B and §V: one
 * request at a time, each measured in its own window.
 */

#ifndef AGENTSIM_CORE_SERVING_SYSTEM_HH
#define AGENTSIM_CORE_SERVING_SYSTEM_HH

#include <functional>
#include <vector>

#include "core/probe.hh"
#include "stats/summary.hh"
#include "telemetry/session.hh"
#include "workload/benchmark.hh"

namespace agentsim::core
{

/** Serving-experiment configuration. */
struct ServeConfig
{
    /** Serve single-turn ShareGPT requests instead of an agent. */
    bool chatbot = false;
    /**
     * With chatbot: serve multi-turn conversation *sessions*. Each
     * request is a session; successive turns extend the same context
     * (keytakeaway #8's cross-query prefix persistence).
     */
    bool multiTurn = false;

    agents::AgentKind agent = agents::AgentKind::ReAct;
    workload::Benchmark bench = workload::Benchmark::HotpotQA;
    agents::AgentConfig agentConfig;
    serving::EngineConfig engineConfig;

    /** Offered load (Poisson arrivals). Ignored in closed-loop mode. */
    double qps = 1.0;
    /**
     * Closed-loop mode: issue each request only after the previous
     * one completes (the "sequential execution" comparison, §IV-C,
     * and the single-request probe of §IV-A/B). Each request then
     * gets a window record in ServeResult::requests.
     */
    bool closedLoop = false;

    int numRequests = 100;
    std::uint64_t seed = 1;

    /**
     * Optional telemetry collection: when set, the run attaches the
     * session's trace sink to the engine and every agent rollout and
     * exports end-of-run engine metrics and request-latency
     * histograms into the registry. The session must outlive the
     * call.
     */
    telemetry::SessionTelemetry *telemetry = nullptr;

    /**
     * Optional online SLO tracker: when set it is attached to the
     * engine for the run (TTFT/TBT/E2E observations, burn-rate
     * alerts) and its families are exported into the telemetry
     * registry at the end. Must outlive the call.
     */
    telemetry::SloTracker *slo = nullptr;

    /**
     * Optional causal span collector (usually the session's own; a
     * run given only `telemetry` collects no spans). Every request
     * then gets a span tree (engine phases, agent iterations, tool calls) that
     * collapses to a critical-path blame vector on completion; blame
     * aggregates and tail exemplars are exported with the telemetry
     * (core/bottleneck_report.hh). Must outlive the call.
     */
    telemetry::SpanCollector *spans = nullptr;

    /**
     * Optional flight recorder: it views the session's trace log,
     * span completions tee into its ring, and SLO burn alerts (when
     * `slo` is also set) dump incident bundles. Must outlive the
     * call.
     */
    telemetry::FlightRecorder *recorder = nullptr;
    /**
     * Optional windowed time-series store fed by a read-only sampler
     * coroutine at the store's periodSeconds cadence: completed
     * requests, the E2E burn rate (with `slo`) and, with `telemetry`,
     * every registry scalar after a fresh engine metrics export.
     * Pure observer. Must outlive the call.
     */
    telemetry::TimeSeriesStore *timeseries = nullptr;
};

/** Serving-experiment measurements. */
struct ServeResult
{
    stats::SampleSet e2eSeconds;
    /** Per-turn generation latencies (multi-turn mode only). */
    stats::SampleSet turnSeconds;
    /** Time-to-first-token per LLM request (chatbot modes). */
    stats::SampleSet ttftSeconds;
    int completed = 0;
    int solved = 0;
    /** First submission to last completion, seconds. */
    double makespanSeconds = 0.0;

    serving::EngineStats engineStats;
    kv::CacheStats cacheStats;
    double cacheHitRate = 0.0;
    /** Time-average / peak KV bytes over the run. */
    double kvAvgBytes = 0.0;
    double kvMaxBytes = 0.0;
    /** Node GPU energy over the run, Wh. */
    double energyWh = 0.0;

    /**
     * Attributed cost summed over every request the clients saw
     * (agent rollouts or chat calls). Reconciles with engineStats
     * busy seconds / joules — the ledger conservation property.
     */
    serving::CostLedger totalCost;

    /**
     * Closed-loop runs only: one window record per request, in issue
     * order. Open-loop requests overlap, so their windows are not
     * defined and no records are kept.
     */
    std::vector<RequestProbe> requests;

    /** Simulator self-timing (host wall clock, see sim::Simulation). */
    double simWallSeconds = 0.0;
    double simEventsProcessed = 0.0;
    double simEventsPerSecond = 0.0;

    /** Share of completed requests that were solved. */
    double
    accuracy() const
    {
        return completed > 0 ? static_cast<double>(solved) / completed
                             : 0.0;
    }

    /** Mean of @p f (a callable or data member) over the records. */
    template <typename F>
    double
    meanOver(F f) const
    {
        double total = 0.0;
        for (const RequestProbe &r : requests)
            total += std::invoke(f, r);
        return requests.empty() ? 0.0 : total / requests.size();
    }

    double meanLlmCalls() const;
    double meanToolCalls() const;
    double meanEnergyWh() const { return meanOver(&RequestProbe::energyWh); }
    double meanFlops() const { return meanOver(&RequestProbe::flops); }
    /** Mean share of the request window the GPU sat idle. */
    double meanGpuIdleFraction() const;

    double
    throughputQps() const
    {
        return makespanSeconds > 0 ? completed / makespanSeconds : 0.0;
    }

    double p50() const { return e2eSeconds.percentile(50.0); }
    double p95() const { return e2eSeconds.percentile(95.0); }
};

/** Run one serving experiment. */
ServeResult runServing(const ServeConfig &config);

} // namespace agentsim::core

#endif // AGENTSIM_CORE_SERVING_SYSTEM_HH
