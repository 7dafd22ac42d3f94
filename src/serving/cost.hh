/**
 * @file
 * Per-request resource ledger — the cost-attribution currency of the
 * simulator.
 *
 * Every generation request is charged a ledger by the engine as it
 * moves through the serving pipeline. Unlike the wall-time fields of
 * GenResult (which report how long the request *overlapped* each
 * phase), the ledger's GPU-second fields are *attributed* shares of
 * each engine step, split across the step's participants so that the
 * sum of all request ledgers reconciles with the engine's aggregate
 * busy time and energy (within attribution slack from cancelled
 * requests). This is what makes per-agent / per-benchmark cost
 * breakdowns additive and therefore actionable.
 *
 * Rollups: agents::Trace folds LLM-call ledgers into the rollout's
 * AgentResult; core/serving_system and core/cluster fold rollouts into
 * per-run totals; core/cost_report renders (agent, benchmark) tables
 * and agentsim_cost_* metric families.
 */

#ifndef AGENTSIM_SERVING_COST_HH
#define AGENTSIM_SERVING_COST_HH

namespace agentsim::serving
{

/** Attribution ledger of one request (all values cumulative). */
struct CostLedger
{
    /** Seconds spent waiting for admission, all queueing episodes
     *  (re-queues after preemption included). */
    double queueSeconds = 0.0;
    /** GPU-seconds of step time attributed to this request's prefill
     *  chunks (token-weighted share of each step's prefill part). */
    double prefillGpuSeconds = 0.0;
    /** GPU-seconds attributed to this request's decode tokens (equal
     *  share per decoded token of each step's decode part). */
    double decodeGpuSeconds = 0.0;
    /**
     * GPU-seconds spent re-prefilling tokens this request had already
     * computed before a recompute preemption discarded them — pure
     * waste. A subset of prefillGpuSeconds, not an addition to it.
     */
    double wastedGpuSeconds = 0.0;
    /**
     * Estimated standalone prefill seconds *avoided* because prompt
     * tokens were served from the prefix cache (GPU hits and host-tier
     * restores). Counterfactual savings — not part of gpuSeconds().
     */
    double savedPrefillSeconds = 0.0;
    /** KV-cache occupancy integral: blocks held x seconds held. */
    double kvBlockSeconds = 0.0;
    /** Host->GPU PCIe seconds restoring this request's spilled KV. */
    double transferSeconds = 0.0;
    /**
     * Busy-energy joules attributed to this request (its share of
     * each step's power x step time). Idle draw is not attributed.
     */
    double energyJoules = 0.0;

    /** Attributed GPU-seconds across both phases. */
    double
    gpuSeconds() const
    {
        return prefillGpuSeconds + decodeGpuSeconds;
    }

    CostLedger &
    operator+=(const CostLedger &other)
    {
        queueSeconds += other.queueSeconds;
        prefillGpuSeconds += other.prefillGpuSeconds;
        decodeGpuSeconds += other.decodeGpuSeconds;
        wastedGpuSeconds += other.wastedGpuSeconds;
        savedPrefillSeconds += other.savedPrefillSeconds;
        kvBlockSeconds += other.kvBlockSeconds;
        transferSeconds += other.transferSeconds;
        energyJoules += other.energyJoules;
        return *this;
    }
};

} // namespace agentsim::serving

#endif // AGENTSIM_SERVING_COST_HH
