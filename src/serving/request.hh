/**
 * @file
 * Public request/result types of the LLM serving engine.
 */

#ifndef AGENTSIM_SERVING_REQUEST_HH
#define AGENTSIM_SERVING_REQUEST_HH

#include <cstdint>
#include <optional>

#include "kv/block_manager.hh"
#include "serving/cost.hh"
#include "sim/types.hh"
#include "telemetry/span.hh"

namespace agentsim::serving
{

/** One generation request submitted to the engine. */
struct GenRequest
{
    /**
     * The prompt (deterministic synthetic content), hashed in the
     * engine's KV block size (EngineConfig::blockSize).
     */
    kv::TokenChain prompt;
    /**
     * Exact number of tokens to generate. The workload layer samples
     * realistic output lengths, so the engine does not model EOS.
     */
    std::int64_t maxNewTokens = 1;

    /**
     * Program/session identity: all LLM calls of one agent rollout
     * share a session id, letting program-aware schedulers (Autellix
     * [23]) prioritize by cumulative service. 0 = standalone.
     */
    std::uint64_t sessionId = 0;

    /**
     * SLO deadline measured from submission, seconds; the engine
     * cancels the request (result.timedOut) once it expires, whether
     * it is still queued or already decoding. 0 disables.
     */
    double deadlineSeconds = 0.0;

    /**
     * Agent-layer hint: expected seconds until this session's next
     * request, because the agent will block on a tool call in between
     * (paper §IV-A: ~1.2 s Wikipedia lookups with the GPU idle). When
     * > 0 and a KV spill tier is configured, the engine parks the
     * finished request's chain — demoting it out of HBM for the wait
     * and prefetching it back just before the continuation arrives.
     * 0 (default) disables parking.
     */
    double expectedParkSeconds = 0.0;

    /**
     * Caller's causal span (the LlmCall of an agent step, or a chat
     * turn root). When valid and a SpanCollector is attached, the
     * engine hangs queue/prefill/decode/migration phase spans under
     * it. Invalid (default) = no span emission.
     */
    telemetry::SpanRef parentSpan;

    /**
     * Continue an earlier output instead of starting a fresh one: the
     * tokens generated here are the same stream's, from
     * continues->end() on (a disaggregated decode phase continues its
     * prefill phase's first token). Unset (default): a stream of this
     * request's own, fixed at submission.
     */
    std::optional<kv::TokenRun> continues;
};

/** Completed generation with full accounting. */
struct GenResult
{
    /** The generated tokens: a run of the request's output stream
     *  (partial when the request did not finish). */
    kv::TokenRun output;

    /** Request could never fit in the KV pool. */
    bool failed = false;
    /** Generation was cut short by unrecoverable memory pressure. */
    bool truncated = false;
    /** Cancelled (explicit cancel() or node crash) before finishing. */
    bool cancelled = false;
    /** Cancelled because its deadline expired. */
    bool timedOut = false;
    /** Rejected at admission by queue-depth load shedding. */
    bool shed = false;
    /** The serving node crashed or was offline; retry elsewhere. */
    bool nodeFailure = false;

    /** True when generation ran to completion. */
    bool ok() const
    {
        return !failed && !cancelled && !timedOut && !shed &&
               !nodeFailure;
    }

    /** True when a client-side retry on another node makes sense. */
    bool retryable() const { return shed || nodeFailure; }

    std::int64_t promptTokens = 0;
    /** Prompt tokens served from the prefix cache on first admission. */
    std::int64_t cachedPromptTokens = 0;

    /** Seconds spent queued before first scheduling. */
    double queueSeconds = 0.0;
    /** Seconds of engine steps in which this request prefilled. */
    double prefillSeconds = 0.0;
    /** Seconds of engine steps in which this request decoded. */
    double decodeSeconds = 0.0;
    /** Host->GPU PCIe time restoring this request's spilled KV. */
    double transferSeconds = 0.0;
    /** Submission-to-completion wall time, seconds. */
    double totalSeconds = 0.0;
    /** Time to first output token (queueing + prefill), seconds. */
    double ttftSeconds = 0.0;

    /** FLOPs attributed to this request. */
    double flops = 0.0;
    /** Times this request was preempted (recompute). */
    int preemptions = 0;

    /**
     * Attributed resource ledger (GPU-second shares, KV block-seconds,
     * waste, cache savings, energy). Request ledgers sum to the
     * engine's aggregates — see serving/cost.hh.
     */
    CostLedger ledger;

    sim::Tick submitTick = 0;
    sim::Tick finishTick = 0;
};

} // namespace agentsim::serving

#endif // AGENTSIM_SERVING_REQUEST_HH
