#include "serving/disagg.hh"

#include "sim/logging.hh"

namespace agentsim::serving
{

DisaggServer::DisaggServer(sim::Simulation &sim,
                           const DisaggConfig &config)
    : sim_(sim), config_(config),
      prefill_(std::make_unique<LlmEngine>(sim, config.prefillNode)),
      decode_(std::make_unique<LlmEngine>(sim, config.decodeNode))
{
    if (!config_.decodeNode.enablePrefixCaching) {
        AGENTSIM_FATAL("disaggregated decode node needs prefix "
                       "caching to receive transferred KV");
    }
    if (config_.interconnectBandwidth <= 0)
        AGENTSIM_FATAL("non-positive interconnect bandwidth");
    // One prompt chain feeds both nodes, so both must hash it in the
    // same block size.
    if (config_.prefillNode.blockSize != config_.decodeNode.blockSize)
        AGENTSIM_FATAL("prefill and decode nodes need one KV block size");
}

double
DisaggServer::energyJoules(sim::Tick now) const
{
    return prefill_->energyJoules(now) + decode_->energyJoules(now);
}

sim::Task<GenResult>
DisaggServer::generate(GenRequest request)
{
    const sim::Tick submit = sim_.now();
    const std::int64_t want = request.maxNewTokens;
    kv::TokenChain prompt = std::move(request.prompt);

    // Phase 1: prompt processing + first token on the prefill node.
    GenRequest prefill_req;
    prefill_req.prompt = prompt;
    prefill_req.maxNewTokens = 1;
    GenResult head = co_await prefill_->generate(std::move(prefill_req));
    if (head.failed || head.tokens.empty() || want == 1) {
        head.totalSeconds = sim::toSeconds(sim_.now() - submit);
        head.submitTick = submit;
        co_return head;
    }

    // Phase 2: the prompt's KV crosses the interconnect. Preload
    // first, then charge for what actually landed: blocks the decode
    // node already holds (a shared workflow prefix, an earlier turn)
    // never cross the wire, and a partial preload — the pool filled,
    // or one more block would have evicted this prefix's own head —
    // only pays for the blocks that stayed resident.
    prompt.push_back(head.tokens.front());
    const std::int64_t populated = decode_->preloadPrefix(prompt);
    if (populated > 0) {
        const double wire_bytes =
            static_cast<double>(populated) *
            static_cast<double>(config_.decodeNode.blockSize) *
            static_cast<double>(
                config_.decodeNode.model.kvBytesPerToken());
        co_await sim::delaySec(
            sim_, wire_bytes / config_.interconnectBandwidth);
    }

    // Phase 3: remaining tokens on the decode node; the preloaded
    // prefix turns its "prefill" into a cache hit.
    GenRequest decode_req;
    decode_req.prompt = prompt;
    decode_req.maxNewTokens = want - 1;
    GenResult tail = co_await decode_->generate(std::move(decode_req));

    // Merge the two phase records into one request view.
    GenResult out;
    out.tokens = std::move(head.tokens);
    out.tokens.insert(out.tokens.end(), tail.tokens.begin(),
                      tail.tokens.end());
    out.failed = tail.failed;
    out.truncated = tail.truncated;
    out.promptTokens = head.promptTokens;
    out.cachedPromptTokens = head.cachedPromptTokens;
    out.queueSeconds = head.queueSeconds + tail.queueSeconds;
    out.prefillSeconds = head.prefillSeconds + tail.prefillSeconds;
    out.decodeSeconds = head.decodeSeconds + tail.decodeSeconds;
    out.ttftSeconds = head.ttftSeconds;
    out.flops = head.flops + tail.flops;
    out.preemptions = head.preemptions + tail.preemptions;
    out.submitTick = submit;
    out.finishTick = sim_.now();
    out.totalSeconds = sim::toSeconds(out.finishTick - submit);
    co_return out;
}

} // namespace agentsim::serving
