/**
 * @file
 * Prompt assembly and the agent's memory components (paper Fig 2):
 * short-term trajectory memory (LLM outputs + tool observations) and
 * long-term episodic memory (Reflexion's reflections).
 *
 * Prompts carry deterministic token ids, so the serving engine's
 * prefix cache sees the same sharing structure real agents produce:
 * fixed instruction/few-shot blocks shared across requests, and
 * per-request histories shared across a request's successive calls.
 *
 * A prompt is a kv::TokenChain that only grows at its end: workflows
 * keep a running builder per episode (or per tree node) and extend it
 * with each new segment, so every prompt token is hashed once per
 * episode rather than once per LLM call. The fixed head shared by
 * every task of an (agent, benchmark) is hashed once per run: a
 * per-run PromptHeadCache (agent.hh) keeps it, and each episode copies
 * it. Every segment — instruction, few-shot, user query, tool
 * observation and LLM output alike — is a stream run (kv::TokenRun),
 * appended in closed form; memories hold the runs (Segment), so they
 * hold no tokens.
 */

#ifndef AGENTSIM_AGENTS_PROMPT_HH
#define AGENTSIM_AGENTS_PROMPT_HH

#include <cstdint>
#include <vector>

#include "agents/trace.hh"
#include "kv/block_manager.hh"

namespace agentsim::agents
{

/**
 * One prompt segment: an LLM output (GenResult::output) or a run of a
 * synthetic token stream, held as the run, never as tokens. Copying a
 * memory or a search tree therefore copies no tokens.
 */
struct Segment
{
    SegmentKind kind{};
    kv::TokenRun run;
};

/** A fully assembled prompt: its chain plus the per-kind breakdown. */
struct Prompt
{
    kv::TokenChain chain;
    CallTokens breakdown;
};

/**
 * Ordered accumulation of prompt segments into a running chain. Copy
 * a builder to fork a prompt (a tree branch, a one-off evaluator
 * call); the copy costs one hash per full block.
 */
class PromptBuilder
{
  public:
    /** An empty prompt hashed in blocks of @p block_size tokens. */
    explicit PromptBuilder(int block_size)
        : prompt_{kv::TokenChain(block_size), {}}
    {
    }

    /** Append a run of @p kind, in closed form. */
    PromptBuilder &add(SegmentKind kind, const kv::TokenRun &run);

    /** Append a held segment. */
    PromptBuilder &add(const Segment &segment)
    {
        return add(segment.kind, segment.run);
    }

    /** Current total token count. */
    std::int64_t size() const { return prompt_.chain.size(); }

    /** The running chain. */
    const kv::TokenChain &chain() const { return prompt_.chain; }

    /** Snapshot the prompt so far; the builder keeps growing. */
    Prompt build() const { return prompt_; }

  private:
    /** Count @p n tokens of @p kind in the breakdown. */
    void tally(SegmentKind kind, std::int64_t n);

    Prompt prompt_;
};

/**
 * An agent memory (paper Fig 2): history segments in order. Short-term
 * trajectory memory holds a request's LLM outputs and tool
 * observations; long-term episodic memory holds the verbal
 * reflections distilled from failed trials (Reflexion, LATS), each
 * the reflecting call's own output. Copying one copies no tokens.
 */
class Memory
{
  public:
    /** Append an LLM output or tool observation. */
    void append(Segment segment);

    /** Reset for a fresh trial. */
    void clear() { segments_.clear(); }

    /** Token count of a given kind. */
    std::int64_t tokenCount(SegmentKind kind) const;

    /** Total token count. */
    std::int64_t totalTokens() const;

    /** Extend a running prompt with every segment, in order. */
    void appendTo(PromptBuilder &builder) const;

  private:
    std::vector<Segment> segments_;
};

using TrajectoryMemory = Memory;
using EpisodicMemory = Memory;

} // namespace agentsim::agents

#endif // AGENTSIM_AGENTS_PROMPT_HH
