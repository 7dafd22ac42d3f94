#include "serving/disagg.hh"

#include <algorithm>

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

    // Phase 1: prompt processing + first token on the prefill node.
    // Both phases carry the caller's session, deadline, park hint and
    // span.
    GenRequest prefill_req = request;
    prefill_req.maxNewTokens = 1;
    GenResult head = co_await prefill_->generate(std::move(prefill_req));
    if (head.failed || head.output.count == 0 || want == 1) {
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
    GenRequest decode_req = std::move(request);
    decode_req.prompt.append(head.output);
    const std::int64_t populated =
        decode_->preloadPrefix(decode_req.prompt);
    if (populated > 0) {
        const double wire_bytes =
            static_cast<double>(populated) *
            static_cast<double>(config_.decodeNode.blockSize) *
            static_cast<double>(
                config_.decodeNode.model.kvBytesPerToken());
        co_await sim::delaySec(
            sim_, wire_bytes / config_.interconnectBandwidth);
    }

    // Phase 3: remaining tokens on the decode node, continuing the
    // prefill node's output stream; the preloaded prefix turns its
    // "prefill" into a cache hit. The deadline runs from the caller's
    // submission, so the decode phase gets what is left of it (at
    // least one tick, which expires it at once).
    decode_req.maxNewTokens = want - 1;
    decode_req.continues = head.output;
    if (decode_req.deadlineSeconds > 0) {
        decode_req.deadlineSeconds =
            std::max(decode_req.deadlineSeconds -
                         sim::toSeconds(sim_.now() - submit),
                     sim::toSeconds(1));
    }
    GenResult tail = co_await decode_->generate(std::move(decode_req));

    // Merge the two phase records into one request view: the head
    // finished, so the outcome flags are the tail's.
    GenResult out = std::move(tail);
    out.output = {head.output.stream, head.output.offset,
                  head.output.count + out.output.count};
    out.truncated = head.truncated || out.truncated;
    out.promptTokens = head.promptTokens;
    out.cachedPromptTokens = head.cachedPromptTokens;
    out.queueSeconds += head.queueSeconds;
    out.prefillSeconds += head.prefillSeconds;
    out.decodeSeconds += head.decodeSeconds;
    out.transferSeconds += head.transferSeconds;
    out.ttftSeconds = head.ttftSeconds;
    out.flops += head.flops;
    out.preemptions += head.preemptions;
    out.ledger += head.ledger;
    out.submitTick = submit;
    out.finishTick = sim_.now();
    out.totalSeconds = sim::toSeconds(out.finishTick - submit);
    co_return out;
}

} // namespace agentsim::serving
