#include "agents/trace.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace agentsim::agents
{

CallTokens &
CallTokens::operator+=(const CallTokens &other)
{
    instruction += other.instruction;
    fewShot += other.fewShot;
    user += other.user;
    llmHistory += other.llmHistory;
    toolHistory += other.toolHistory;
    output += other.output;
    return *this;
}

namespace
{

/** Merge spans of one kind into disjoint sorted intervals. */
std::vector<std::pair<sim::Tick, sim::Tick>>
mergedIntervals(const std::vector<Span> &spans, Span::Kind kind)
{
    std::vector<std::pair<sim::Tick, sim::Tick>> ivals;
    for (const auto &s : spans) {
        if (s.kind == kind && s.end > s.start)
            ivals.emplace_back(s.start, s.end);
    }
    std::sort(ivals.begin(), ivals.end());
    std::vector<std::pair<sim::Tick, sim::Tick>> merged;
    for (const auto &iv : ivals) {
        if (!merged.empty() && iv.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second,
                                            iv.second);
        else
            merged.push_back(iv);
    }
    return merged;
}

/** Total length of the intersection of two disjoint interval lists. */
sim::Tick
intersectionLength(
    const std::vector<std::pair<sim::Tick, sim::Tick>> &a,
    const std::vector<std::pair<sim::Tick, sim::Tick>> &b)
{
    sim::Tick total = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const sim::Tick lo = std::max(a[i].first, b[j].first);
        const sim::Tick hi = std::min(a[i].second, b[j].second);
        if (hi > lo)
            total += hi - lo;
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return total;
}

sim::Tick
totalLength(const std::vector<std::pair<sim::Tick, sim::Tick>> &ivals)
{
    sim::Tick total = 0;
    for (const auto &iv : ivals)
        total += iv.second - iv.first;
    return total;
}

} // namespace

LatencyBreakdown
breakdownSpans(const std::vector<Span> &spans, sim::Tick start,
               sim::Tick end)
{
    LatencyBreakdown b;
    const auto llm = mergedIntervals(spans, Span::Kind::Llm);
    const auto tool = mergedIntervals(spans, Span::Kind::Tool);
    const sim::Tick llm_total = totalLength(llm);
    const sim::Tick tool_total = totalLength(tool);
    const sim::Tick overlap = intersectionLength(llm, tool);

    b.overlapSeconds = sim::toSeconds(overlap);
    b.llmOnlySeconds = sim::toSeconds(llm_total - overlap);
    b.toolOnlySeconds = sim::toSeconds(tool_total - overlap);
    b.e2eSeconds = sim::toSeconds(end - start);
    b.otherSeconds =
        std::max(0.0, b.e2eSeconds - b.llmOnlySeconds -
                          b.toolOnlySeconds - b.overlapSeconds);
    return b;
}

void
Trace::addLlmCall(const CallTokens &tokens,
                  const serving::GenResult &gen, sim::Tick start,
                  sim::Tick end, const std::string &label)
{
    ++llmCalls_;
    totals_ += tokens;
    perCall_.push_back(tokens);
    timeline_.push_back(Span{Span::Kind::Llm, start, end, label});
    flops_ += gen.flops;
    outputTokens_ += gen.output.count;
    promptTokens_ += gen.promptTokens;
    cachedTokens_ += gen.cachedPromptTokens;
    queueSeconds_ += gen.queueSeconds;
    cost_ += gen.ledger;
    perCallCost_.push_back(gen.ledger);
    noteContextTokens(gen.promptTokens + gen.output.count);
}

void
Trace::addToolCall(const std::string &name, sim::Tick start,
                   sim::Tick end)
{
    ++toolCalls_;
    timeline_.push_back(Span{Span::Kind::Tool, start, end, name});
}

void
Trace::noteContextTokens(std::int64_t tokens)
{
    maxContextTokens_ = std::max(maxContextTokens_, tokens);
}

AgentResult
Trace::finish(bool solved, sim::Tick end) const
{
    AgentResult r;
    r.solved = solved;
    r.llmCalls = llmCalls_;
    r.toolCalls = toolCalls_;
    r.iterationsUsed = iterations_;
    r.reflectionsUsed = reflections_;
    r.e2eSeconds = sim::toSeconds(end - start_);
    r.latency = breakdownSpans(timeline_, start_, end);
    r.tokens = totals_;
    r.perCall = perCall_;
    r.timeline = timeline_;
    r.flops = flops_;
    r.outputTokens = outputTokens_;
    r.promptTokensTotal = promptTokens_;
    r.cachedPromptTokensTotal = cachedTokens_;
    r.queueSeconds = queueSeconds_;
    r.maxContextTokens = maxContextTokens_;
    r.cost = cost_;
    r.perCallCost = perCallCost_;
    return r;
}

} // namespace agentsim::agents
