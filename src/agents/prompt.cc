#include "agents/prompt.hh"

#include "sim/logging.hh"

namespace agentsim::agents
{

Segment
Segment::output(SegmentKind kind, std::vector<kv::TokenId> tokens)
{
    const auto n = static_cast<std::int64_t>(tokens.size());
    return Segment{kind,
                   std::make_shared<const std::vector<kv::TokenId>>(
                       std::move(tokens)),
                   0, n};
}

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
PromptBuilder::add(SegmentKind kind, std::span<const kv::TokenId> tokens)
{
    tally(kind, static_cast<std::int64_t>(tokens.size()));
    prompt_.chain.append(tokens);
    return *this;
}

PromptBuilder &
PromptBuilder::addStream(SegmentKind kind, std::uint64_t stream,
                         std::int64_t count)
{
    tally(kind, count);
    prompt_.chain.appendStream(stream, 0, count);
    return *this;
}

PromptBuilder &
PromptBuilder::add(const Segment &segment)
{
    if (segment.tokens != nullptr)
        return add(segment.kind, *segment.tokens);
    return addStream(segment.kind, segment.stream, segment.count);
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
            total += s.count;
    }
    return total;
}

std::int64_t
Memory::totalTokens() const
{
    std::int64_t total = 0;
    for (const auto &s : segments_)
        total += s.count;
    return total;
}

void
Memory::appendTo(PromptBuilder &builder) const
{
    for (const auto &s : segments_)
        builder.add(s);
}

} // namespace agentsim::agents
