#include "agents/prompt.hh"

#include "sim/logging.hh"

namespace agentsim::agents
{

PromptBuilder &
PromptBuilder::add(SegmentKind kind, std::span<const kv::TokenId> tokens)
{
    prompt_.chain.append(tokens);
    CallTokens &breakdown = prompt_.breakdown;
    const auto n = static_cast<std::int64_t>(tokens.size());
    switch (kind) {
      case SegmentKind::Instruction:
        breakdown.instruction += n;
        break;
      case SegmentKind::FewShot:
        breakdown.fewShot += n;
        break;
      case SegmentKind::User:
        breakdown.user += n;
        break;
      case SegmentKind::LlmHistory:
        breakdown.llmHistory += n;
        break;
      case SegmentKind::ToolHistory:
        breakdown.toolHistory += n;
        break;
      case SegmentKind::Output:
        AGENTSIM_PANIC("Output is not an input segment");
    }
    return *this;
}

void
TrajectoryMemory::append(SegmentKind kind,
                         std::vector<kv::TokenId> tokens)
{
    AGENTSIM_ASSERT(kind == SegmentKind::LlmHistory ||
                        kind == SegmentKind::ToolHistory,
                    "trajectory holds only history segments");
    segments_.push_back(Segment{kind, std::move(tokens)});
}

std::int64_t
TrajectoryMemory::tokenCount(SegmentKind kind) const
{
    std::int64_t total = 0;
    for (const auto &s : segments_) {
        if (s.kind == kind)
            total += static_cast<std::int64_t>(s.tokens.size());
    }
    return total;
}

std::int64_t
TrajectoryMemory::totalTokens() const
{
    std::int64_t total = 0;
    for (const auto &s : segments_)
        total += static_cast<std::int64_t>(s.tokens.size());
    return total;
}

void
TrajectoryMemory::appendTo(PromptBuilder &builder) const
{
    for (const auto &s : segments_)
        builder.add(s.kind, s.tokens);
}

void
EpisodicMemory::addReflection(std::vector<kv::TokenId> tokens)
{
    reflections_.push_back(std::move(tokens));
}

std::int64_t
EpisodicMemory::totalTokens() const
{
    std::int64_t total = 0;
    for (const auto &r : reflections_)
        total += static_cast<std::int64_t>(r.size());
    return total;
}

void
EpisodicMemory::appendTo(PromptBuilder &builder) const
{
    for (const auto &r : reflections_)
        builder.add(SegmentKind::LlmHistory, r);
}

} // namespace agentsim::agents
