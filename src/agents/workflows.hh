/**
 * @file
 * The five evaluated agent workflows (paper §III, Fig 3):
 *
 *  - CotAgent          one internal-reasoning LLM call, no tools.
 *  - ReActAgent        interleaved thought/action/observation loop.
 *  - ReflexionAgent    ReAct trials + verbal self-reflection retries.
 *  - LatsAgent         Monte-Carlo tree search with parallel child
 *                      expansion, LLM value scoring and reflection.
 *  - LlmCompilerAgent  DAG planning with streamed, dependency-aware
 *                      asynchronous tool execution and a joiner.
 */

#ifndef AGENTSIM_AGENTS_WORKFLOWS_HH
#define AGENTSIM_AGENTS_WORKFLOWS_HH

#include <functional>

#include "agents/agent.hh"

namespace agentsim::agents
{

/** Chain-of-Thought static reasoning (Fig 3a). */
class CotAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::CoT; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/** ReAct: reason + act loop (Fig 3b). */
class ReActAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::ReAct; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/** Reflexion: ReAct trials with episodic reflection (Fig 3c). */
class ReflexionAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::Reflexion; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/** Language Agent Tree Search (Fig 3d). */
class LatsAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::Lats; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/** LLMCompiler: plan-and-execute with streaming (Fig 3e). */
class LlmCompilerAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::LlmCompiler; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/**
 * Self-Consistency (extension): N parallel CoT samples followed by a
 * majority vote — the static *parallel* test-time scaling of the
 * paper's Fig 1(b) taxonomy, for comparison against agentic scaling.
 */
class SelfConsistencyAgent : public Agent
{
  public:
    AgentKind
    kind() const override
    {
        return AgentKind::SelfConsistency;
    }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/**
 * Actor-critic collaboration (extension): a tool-using actor drafts a
 * solution; an LLM critic reviews the trajectory and either accepts
 * it or sends the actor back with feedback. Unlike Reflexion, the
 * judge is a fallible internal model, not the environment's reward.
 */
class ActorCriticAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::ActorCritic; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/**
 * Tree-of-Thoughts (extension): breadth-limited deliberate search
 * over internal reasoning steps with LLM state evaluation — the §I
 * taxonomy's structured static scaling, tool-free.
 */
class TreeOfThoughtsAgent : public Agent
{
  public:
    AgentKind
    kind() const override
    {
        return AgentKind::TreeOfThoughts;
    }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/**
 * Best-of-N (extension): N parallel samples, each scored by an LLM
 * verifier; the top-ranked sample is the answer.
 */
class BestOfNAgent : public Agent
{
  public:
    AgentKind kind() const override { return AgentKind::BestOfN; }
    sim::Task<AgentResult> run(AgentContext ctx) override;
};

/** Outcome of one tool-loop trial (shared by ReAct and Reflexion). */
struct TrialOutcome
{
    int hopsFound = 0;
    int iterations = 0;
    bool answeredCorrectly = false;
};

/**
 * Journaled snapshot of an in-progress tool-loop trial — everything
 * runToolLoopTrial needs to continue at the next iteration exactly as
 * if the episode had never been interrupted: outcome counters, the
 * trajectory, the drawn per-trial capability, the behavioural RNG
 * positioned at the iteration boundary, and the accumulated trace.
 * ReAct journals this directly; Reflexion wraps it with its
 * cross-trial loop position (DESIGN.md §3j).
 */
struct ReactEpisodeState
{
    TrialOutcome outcome;
    TrajectoryMemory memory;
    /** False for a snapshot taken before the trial's capability draw
     *  (a Reflexion trial boundary) — resume draws it from `rng`. */
    bool capabilityDrawn = false;
    double capability = 0.0;
    sim::Rng rng;
    Trace trace;

    ReactEpisodeState(const sim::Rng &rng_, const Trace &trace_)
        : rng(rng_), trace(trace_)
    {
    }
};

/**
 * Checkpoint hook runToolLoopTrial invokes after each completed
 * iteration (all of the iteration's RNG draws included), with the
 * live loop state — including the running prompt chain the next
 * iteration would prefill with. The workflow decides whether/what to
 * journal.
 */
using TrialCheckpointFn = std::function<void(
    const TrialOutcome &outcome, const TrajectoryMemory &memory,
    const kv::TokenChain &chain, double capability,
    const sim::Rng &rng)>;

/**
 * One ReAct-style trial: up to config.maxIterations iterations of
 * (LLM step, tool call, progress). Used directly by ReActAgent and as
 * the inner loop of ReflexionAgent. The trial's prompt is one running
 * chain, built once from @p prefix and extended by every step.
 *
 * @param prefix the episode's fixed prompt head
 *        (AgentContext::promptPrefix()).
 * @param reflections reflections accumulated so far (boosts the hop
 *        success probability).
 * @param call_base discriminator for observation token streams.
 * @param resume restored mid-trial state to continue from (caller
 *        already copied its memory into @p memory and its rng/trace
 *        into @p rng / @p trace); null starts fresh.
 * @param checkpoint per-iteration journal hook (empty disables).
 */
sim::Task<TrialOutcome>
runToolLoopTrial(AgentContext &ctx, Trace &trace, sim::Rng &rng,
                 const PromptBuilder &prefix, TrajectoryMemory &memory,
                 const EpisodicMemory &episodic, int reflections,
                 std::uint64_t call_base,
                 const ReactEpisodeState *resume = nullptr,
                 const TrialCheckpointFn &checkpoint = {});

/**
 * A trial's running prompt: @p prefix, then the episodic reflections,
 * then the trajectory so far. Its chain is also what an episode
 * checkpoint records for KV restore on the surviving node.
 */
PromptBuilder trialPrompt(PromptBuilder prefix,
                          const EpisodicMemory &episodic,
                          const TrajectoryMemory &memory);

/** KV bytes per token on @p engine (prices checkpoint snapshots). */
double kvBytesPerToken(const serving::LlmEngine &engine);

} // namespace agentsim::agents

#endif // AGENTSIM_AGENTS_WORKFLOWS_HH
