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
      weightBytes_(static_cast<double>(model_.weightBytes())),
      effectiveFlops_(node_.effectiveFlops()),
      effectiveBandwidth_(node_.effectiveBandwidth())
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

double
PerfModel::stepSeconds(double flops, double bytes, std::size_t seqs) const
{
    return std::max(flops / effectiveFlops_, bytes / effectiveBandwidth_) +
           node_.stepOverheadSec +
           node_.perSeqOverheadSec * static_cast<double>(seqs);
}

StepCost
PerfModel::stepCost(const StepWork &work,
                    std::span<double> flops_out) const
{
    AGENTSIM_ASSERT(flops_out.empty() ||
                        flops_out.size() == work.decodeContexts.size(),
                    "%zu decode FLOPs slots for %zu decodes",
                    flops_out.size(), work.decodeContexts.size());
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
    // The step's sums so far are the prefill-alone sums; the decodes
    // extend them and, from the weights up, the decode-alone sums.
    const double prefill_flops = flops;
    const double prefill_bytes = bytes;
    double decode_flops = 0.0;
    double decode_bytes = weightBytes_;

    for (std::size_t i = 0; i < work.decodeContexts.size(); ++i) {
        const std::int64_t ctx = work.decodeContexts[i];
        const double ctx_flops = decodeFlops(ctx);
        if (!flops_out.empty())
            flops_out[i] = ctx_flops;
        // Decode reads the whole KV history and writes one entry.
        const double ctx_bytes = kv_per_token * static_cast<double>(ctx + 1);
        flops += ctx_flops;
        bytes += ctx_bytes;
        decode_flops += ctx_flops;
        decode_bytes += ctx_bytes;
        cost.decodeTokens += 1;
    }

    cost.flops = flops;
    cost.bytes = bytes;
    cost.computeSeconds = flops / effectiveFlops_;
    cost.memorySeconds = bytes / effectiveBandwidth_;
    cost.seconds = stepSeconds(flops, bytes,
                               work.prefills.size() +
                                   work.decodeContexts.size());
    if (!work.prefills.empty()) {
        cost.prefillOnlySeconds =
            stepSeconds(prefill_flops, prefill_bytes, work.prefills.size());
    }
    if (!work.decodeContexts.empty()) {
        cost.decodeOnlySeconds = stepSeconds(decode_flops, decode_bytes,
                                             work.decodeContexts.size());
    }
    return cost;
}

double
PerfModel::prefillSeconds(std::int64_t tokens,
                          std::int64_t context_before) const
{
    // stepCost() of this lone chunk, without building a StepWork.
    double bytes = weightBytes_;
    bytes += kvBytesPerToken_ * static_cast<double>(tokens);
    bytes += kvBytesPerToken_ * static_cast<double>(context_before);
    return stepSeconds(prefillFlops(tokens, context_before), bytes, 1);
}

double
PerfModel::decodeSecondsSingle(std::int64_t context_len) const
{
    StepWork w;
    w.decodeContexts.push_back(context_len);
    return stepCost(w).seconds;
}

} // namespace agentsim::llm
