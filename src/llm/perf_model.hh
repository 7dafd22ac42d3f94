/**
 * @file
 * Roofline performance model for one engine step.
 *
 * The serving engine batches work at iteration granularity (continuous
 * batching): each step carries some prefill chunks and one decode token
 * for every running sequence. The model prices a step as
 *     max(flops / effective_flops, bytes / effective_bandwidth)
 *     + fixed step overhead,
 * which makes prefill compute-bound and decode memory-bound — the
 * asymmetry at the heart of the paper's Fig 6, 10 and 11.
 */

#ifndef AGENTSIM_LLM_PERF_MODEL_HH
#define AGENTSIM_LLM_PERF_MODEL_HH

#include <cstdint>
#include <vector>

#include "llm/hardware.hh"
#include "llm/model_spec.hh"

namespace agentsim::llm
{

/** Work scheduled into one engine step. */
struct StepWork
{
    /** A contiguous run of prompt tokens being prefilled. */
    struct PrefillChunk
    {
        /** New tokens computed in this step. */
        std::int64_t tokens = 0;
        /** KV-cache tokens already in place before this chunk. */
        std::int64_t contextBefore = 0;
    };

    std::vector<PrefillChunk> prefills;
    /** Context length (tokens attended over) per decoding sequence. */
    std::vector<std::int64_t> decodeContexts;

    bool
    empty() const
    {
        return prefills.empty() && decodeContexts.empty();
    }
};

/** Priced cost of one engine step. */
struct StepCost
{
    double seconds = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
    std::int64_t prefillTokens = 0;
    std::int64_t decodeTokens = 0;
    /** Roofline components (before taking the max). */
    double computeSeconds = 0.0;
    double memorySeconds = 0.0;

    /** True if the step was limited by FLOPs rather than bandwidth. */
    bool computeBound() const { return computeSeconds >= memorySeconds; }
};

/**
 * Prices StepWork for a (model, node) pair and attributes FLOPs to
 * individual requests.
 */
class PerfModel
{
  public:
    PerfModel(ModelSpec model, NodeSpec node);

    const ModelSpec &model() const { return model_; }
    const NodeSpec &node() const { return node_; }

    /** Price one engine step. */
    StepCost stepCost(const StepWork &work) const;

    /** FLOPs to prefill @p tokens new tokens after @p context_before. */
    double prefillFlops(std::int64_t tokens,
                        std::int64_t context_before) const;

    /** FLOPs to decode one token with @p context_len tokens of KV. */
    double decodeFlops(std::int64_t context_len) const;

    /**
     * Latency of a standalone prefill of @p tokens tokens (no batch
     * sharing) — used for calibration and unit checks.
     */
    double prefillSeconds(std::int64_t tokens,
                          std::int64_t context_before = 0) const;

    /**
     * Latency of one decode step for a single sequence at
     * @p context_len — used for calibration and unit checks.
     */
    double decodeSecondsSingle(std::int64_t context_len) const;

  private:
    ModelSpec model_;
    NodeSpec node_;
    /** ModelSpec arithmetic hoisted out of the per-step path; each is
     *  the ModelSpec expression evaluated once, so the doubles are
     *  the same bits the per-call form produced. */
    double denseFlopsPerToken_;
    /** attentionFlops(1): FLOPs per attended position per token. */
    double attentionFlopsPerPosition_;
    double kvBytesPerToken_;
    double weightBytes_;
};

} // namespace agentsim::llm

#endif // AGENTSIM_LLM_PERF_MODEL_HH
