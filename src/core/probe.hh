/**
 * @file
 * Single-request characterization (paper §IV-A/B, §V): the engine
 * presets the experiments run on, and the per-request window record a
 * closed-loop runServing() keeps for every request it issues one at a
 * time against a warm engine (core/serving_system.hh).
 */

#ifndef AGENTSIM_CORE_PROBE_HH
#define AGENTSIM_CORE_PROBE_HH

#include "agents/workflows.hh"
#include "serving/engine.hh"
#include "telemetry/span.hh"

namespace agentsim::core
{

/** Engine preset: Llama-3.1-8B on one A100 (paper default). */
serving::EngineConfig enginePreset8b();

/** Engine preset: Llama-3.1-70B on 8 A100s, TP=8. */
serving::EngineConfig enginePreset70b();

/**
 * Window measurements around one closed-loop request. The windows of
 * a closed-loop run tile it: each opens when its request is issued
 * and closes when the request completes, which is when the next one
 * is issued.
 */
struct RequestProbe
{
    /** The agent rollout (default-constructed for chat requests). */
    agents::AgentResult result;
    /** Window length: the request's end-to-end latency, seconds. */
    double e2eSeconds = 0.0;
    /** Node GPU energy within the request window (incl. idle), Wh. */
    double energyWh = 0.0;
    /** GPU-busy seconds within the window. */
    double gpuBusySeconds = 0.0;
    double gpuPrefillSeconds = 0.0;
    double gpuDecodeSeconds = 0.0;
    /** DCGM-style SM-active seconds within the window. */
    double gpuCoreActiveSeconds = 0.0;
    /** Time-average / peak KV-cache bytes over the window. */
    double kvAvgBytes = 0.0;
    double kvMaxBytes = 0.0;
    /** FLOPs the engine attributed to this request's calls. */
    double flops = 0.0;
    /** Critical-path blame (all zero unless spans were collected). */
    telemetry::BlameVector blame;
};

} // namespace agentsim::core

#endif // AGENTSIM_CORE_PROBE_HH
