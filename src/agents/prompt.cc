#include "agents/prompt.hh"

#include "sim/logging.hh"

namespace agentsim::agents
{

void
PromptBuilder::tally(SegmentKind kind, std::int64_t n)
{
    CallTokens &breakdown = prompt_.breakdown;
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
}

PromptBuilder &
PromptBuilder::add(SegmentKind kind, const kv::TokenRun &run)
{
    tally(kind, run.count);
    prompt_.chain.append(run);
    return *this;
}

void
Memory::append(Segment segment)
{
    AGENTSIM_ASSERT(segment.kind == SegmentKind::LlmHistory ||
                        segment.kind == SegmentKind::ToolHistory,
                    "memory holds only history segments");
    segments_.push_back(std::move(segment));
}

std::int64_t
Memory::tokenCount(SegmentKind kind) const
{
    std::int64_t total = 0;
    for (const auto &s : segments_) {
        if (s.kind == kind)
            total += s.run.count;
    }
    return total;
}

std::int64_t
Memory::totalTokens() const
{
    std::int64_t total = 0;
    for (const auto &s : segments_)
        total += s.run.count;
    return total;
}

void
Memory::appendTo(PromptBuilder &builder) const
{
    for (const auto &s : segments_)
        builder.add(s);
}

} // namespace agentsim::agents
