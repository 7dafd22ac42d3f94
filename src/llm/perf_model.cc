#include "llm/perf_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace agentsim::llm
{

PerfModel::PerfModel(ModelSpec model, NodeSpec node)
    : model_(std::move(model)), node_(std::move(node)),
      denseFlopsPerToken_(model_.denseFlopsPerToken()),
      attentionFlopsPerPosition_(model_.attentionFlops(1)),
      kvBytesPerToken_(static_cast<double>(model_.kvBytesPerToken())),
      weightBytes_(static_cast<double>(model_.weightBytes()))
{
    AGENTSIM_ASSERT(node_.numGpus > 0, "node with no GPUs");
    const auto need = model_.weightBytes();
    const auto have = node_.totalMemory();
    if (need > have) {
        AGENTSIM_FATAL("model %s (%lld weight bytes) does not fit on "
                       "%d x %s (%lld bytes)",
                       model_.name.c_str(), static_cast<long long>(need),
                       node_.numGpus, node_.gpu.name.c_str(),
                       static_cast<long long>(have));
    }
}

double
PerfModel::prefillFlops(std::int64_t tokens,
                        std::int64_t context_before) const
{
    AGENTSIM_ASSERT(tokens >= 0 && context_before >= 0,
                    "negative prefill work");
    if (tokens == 0)
        return 0.0;
    const double dense =
        static_cast<double>(tokens) * denseFlopsPerToken_;
    // Token at offset i attends over (context_before + i) positions;
    // sum over the chunk is an arithmetic series.
    const double pos_sum =
        static_cast<double>(tokens) * static_cast<double>(context_before) +
        0.5 * static_cast<double>(tokens) *
            static_cast<double>(tokens - 1);
    const double attn = attentionFlopsPerPosition_ * pos_sum;
    return dense + attn;
}

double
PerfModel::decodeFlops(std::int64_t context_len) const
{
    // attentionFlops(n) is attentionFlops(1) * n in the same
    // left-to-right order, so this is bit-identical to the spec call.
    return denseFlopsPerToken_ +
           attentionFlopsPerPosition_ * static_cast<double>(context_len);
}

StepCost
PerfModel::stepCost(const StepWork &work) const
{
    StepCost cost;
    if (work.empty())
        return cost;

    const double kv_per_token = kvBytesPerToken_;

    // Weights stream through the node once per step.
    double bytes = weightBytes_;
    double flops = 0.0;

    for (const auto &chunk : work.prefills) {
        flops += prefillFlops(chunk.tokens, chunk.contextBefore);
        cost.prefillTokens += chunk.tokens;
        // KV writes for the new tokens plus reads of the existing
        // prefix (attention streams the cached keys/values).
        bytes += kv_per_token * static_cast<double>(chunk.tokens);
        bytes += kv_per_token * static_cast<double>(chunk.contextBefore);
    }

    for (const auto ctx : work.decodeContexts) {
        flops += decodeFlops(ctx);
        cost.decodeTokens += 1;
        // Decode reads the whole KV history and writes one entry.
        bytes += kv_per_token * static_cast<double>(ctx + 1);
    }

    cost.flops = flops;
    cost.bytes = bytes;
    cost.computeSeconds = flops / node_.effectiveFlops();
    cost.memorySeconds = bytes / node_.effectiveBandwidth();
    const double seq_overhead =
        node_.perSeqOverheadSec *
        static_cast<double>(work.prefills.size() +
                            work.decodeContexts.size());
    cost.seconds = std::max(cost.computeSeconds, cost.memorySeconds) +
                   node_.stepOverheadSec + seq_overhead;
    return cost;
}

double
PerfModel::prefillSeconds(std::int64_t tokens,
                          std::int64_t context_before) const
{
    StepWork w;
    w.prefills.push_back({tokens, context_before});
    return stepCost(w).seconds;
}

double
PerfModel::decodeSecondsSingle(std::int64_t context_len) const
{
    StepWork w;
    w.decodeContexts.push_back(context_len);
    return stepCost(w).seconds;
}

} // namespace agentsim::llm
