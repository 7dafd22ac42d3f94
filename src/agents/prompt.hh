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
 * episode rather than once per LLM call.
 */

#ifndef AGENTSIM_AGENTS_PROMPT_HH
#define AGENTSIM_AGENTS_PROMPT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "agents/trace.hh"
#include "kv/block_manager.hh"

namespace agentsim::agents
{

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

    /** Append a segment of @p kind (hashes only its tokens). */
    PromptBuilder &add(SegmentKind kind,
                       std::span<const kv::TokenId> tokens);

    /** Current total token count. */
    std::int64_t size() const { return prompt_.chain.size(); }

    /** The running chain. */
    const kv::TokenChain &chain() const { return prompt_.chain; }

    /** Snapshot the prompt so far; the builder keeps growing. */
    Prompt build() const { return prompt_; }

  private:
    Prompt prompt_;
};

/**
 * Short-term memory: the interleaved trajectory of LLM outputs and
 * tool observations accumulated over a request's iterations.
 */
class TrajectoryMemory
{
  public:
    struct Segment
    {
        SegmentKind kind{};
        std::vector<kv::TokenId> tokens;
    };

    /** Append an LLM output or tool observation. */
    void append(SegmentKind kind, std::vector<kv::TokenId> tokens);

    /** Reset for a fresh trial (Reflexion). */
    void clear() { segments_.clear(); }

    const std::vector<Segment> &segments() const { return segments_; }

    /** Token count of a given kind. */
    std::int64_t tokenCount(SegmentKind kind) const;

    /** Total token count. */
    std::int64_t totalTokens() const;

    /** Extend a running prompt with every segment, in order. */
    void appendTo(PromptBuilder &builder) const;

  private:
    std::vector<Segment> segments_;
};

/**
 * Long-term episodic memory: verbal reflections distilled from failed
 * trials (Reflexion, LATS). Rendered into prompts as LLM history.
 */
class EpisodicMemory
{
  public:
    void addReflection(std::vector<kv::TokenId> tokens);

    std::size_t reflectionCount() const { return reflections_.size(); }
    std::int64_t totalTokens() const;

    /** Extend a running prompt with every reflection, in order. */
    void appendTo(PromptBuilder &builder) const;

  private:
    std::vector<std::vector<kv::TokenId>> reflections_;
};

} // namespace agentsim::agents

#endif // AGENTSIM_AGENTS_PROMPT_HH
