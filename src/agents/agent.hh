/**
 * @file
 * The agent core: workflow kinds, the capability matrix (Table I), the
 * design-space configuration (§V), the execution context wiring an
 * agent to the serving engine and tools, and the Agent interface.
 */

#ifndef AGENTSIM_AGENTS_AGENT_HH
#define AGENTSIM_AGENTS_AGENT_HH

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

#include "agents/prompt.hh"
#include "agents/trace.hh"
#include "serving/checkpoint.hh"
#include "serving/engine.hh"
#include "sim/rng.hh"
#include "sim/task.hh"
#include "tools/catalog.hh"
#include "workload/benchmark.hh"

namespace agentsim::agents
{

/**
 * The agent workflows. The first five are the paper's evaluated set
 * (Table I); SelfConsistency is this library's extension implementing
 * the static multi-sample decoding of the paper's Fig 1(b) taxonomy
 * (Wang et al., ICLR'23) as a comparison baseline.
 */
enum class AgentKind
{
    CoT,
    ReAct,
    Reflexion,
    Lats,
    LlmCompiler,
    SelfConsistency,
    /** Extension: two-role collaboration (actor + LLM critic), the
     *  AutoGen/CAMEL pattern of the paper's related work (§VII). */
    ActorCritic,
    /** Extension: tool-less deliberate tree search over thoughts
     *  (Tree-of-Thoughts, §I taxonomy). */
    TreeOfThoughts,
    /** Extension: N samples ranked by an LLM verifier (Best-of-N,
     *  §I taxonomy). */
    BestOfN,
};

/** The paper's evaluated agents, in paper order. */
constexpr std::array<AgentKind, 5> allAgents{
    AgentKind::CoT, AgentKind::ReAct, AgentKind::Reflexion,
    AgentKind::Lats, AgentKind::LlmCompiler};

std::string_view agentName(AgentKind kind);

/** Capability matrix row (paper Table I). */
struct Capabilities
{
    bool reasoning = false;
    bool toolUse = false;
    bool reflection = false;
    bool treeSearch = false;
    bool structuredPlanning = false;
};

Capabilities capabilities(AgentKind kind);

/** True if the paper evaluates this agent x benchmark pair. */
bool agentSupports(AgentKind kind, workload::Benchmark benchmark);

/**
 * Design-space knobs of §V. Values of -1 mean "benchmark default".
 */
struct AgentConfig
{
    /** Few-shot examples in the prompt (-1: benchmark default). */
    int fewShotExamples = -1;
    /** Reasoning/tool iterations per trial (ReAct & trials within
     *  Reflexion; MCTS rounds for LATS). */
    int maxIterations = 7;
    /** Maximum reflection retries after a failed trial (Reflexion). */
    int maxReflections = 2;
    /** Children per tree expansion (LATS parallel scaling). */
    int latsChildren = 5;
    /** Plan-execute-join rounds (LLMCompiler). */
    int compilerMaxRounds = 2;
    /**
     * Speculative tool invocation (paper keytakeaway #1): launch a
     * predicted tool call concurrently with each reasoning LLM call;
     * correct predictions hide the tool latency, wrong ones waste a
     * call. ReAct-style loops only.
     */
    bool speculativeTools = false;
    /** Parallel samples for SelfConsistency's majority vote. */
    int scSamples = 5;
    /** Backbone per-hop competence (see accuracy.hh). */
    double modelQuality = 0.50;
    /**
     * Per-LLM-call SLO deadline, seconds (0 disables). Set on every
     * GenRequest the rollout issues; an expired call surfaces as
     * GenResult.timedOut and the rollout is abandoned (see
     * RolloutAbandoned).
     */
    double llmDeadlineSeconds = 0.0;

    /** Resolve the few-shot count against a benchmark profile. */
    int resolveFewShot(const workload::BenchmarkProfile &profile) const
    {
        return fewShotExamples >= 0 ? fewShotExamples
                                    : profile.defaultFewShot;
    }
};

/**
 * The prompt heads of one run: the instruction and few-shot blocks
 * shared by every task of an (agent, benchmark), keyed by (agent,
 * benchmark, resolved few-shot count, KV block size, seed). Each head
 * is built and hashed on first use and copied into every episode
 * after. Per-run state: runServing and runCluster each own one and
 * hand it to their episodes through AgentContext::heads, so no head
 * outlives its run or crosses into another.
 */
using PromptHeadCache =
    std::map<std::tuple<AgentKind, workload::Benchmark, int, int,
                        std::uint64_t>,
             PromptBuilder>;

/**
 * Everything an agent run needs. Cheap to copy; owns its RNG stream
 * and trace.
 */
struct AgentContext
{
    sim::Simulation *sim = nullptr;
    serving::LlmEngine *engine = nullptr;
    tools::ToolSet *tools = nullptr;
    workload::TaskInstance task;
    AgentConfig config;
    AgentKind kind{};
    std::uint64_t seed = 1;

    /**
     * Optional cross-layer trace sink: when set, every LLM and tool
     * call is emitted as a span on the agent track (pid
     * telemetry::TracePid::kAgents, lane @ref traceTid), sharing the
     * simulator clock with the engine and request tracks.
     */
    telemetry::TraceSink *traceSink = nullptr;
    /** Trace lane for this rollout (e.g. the task index). */
    std::uint64_t traceTid = 0;

    /**
     * Optional causal span collector: when set (with a valid
     * @ref spanParent), callLlm/callTool attach LlmCall/ToolCall
     * spans under the current parent, and workflows scope iteration
     * spans via SpanScope. The engine picks the LlmCall span up
     * through GenRequest::parentSpan.
     */
    telemetry::SpanCollector *spans = nullptr;
    /** Current span to attach children under (episode, attempt or
     *  iteration — SpanScope pushes/pops it). */
    telemetry::SpanRef spanParent;

    /**
     * Optional episode checkpoint store. When set (and its policy
     * enabled), workflows journal an EpisodeCheckpoint at iteration
     * boundaries under @ref episodeKey so the cluster's retry path
     * can resume instead of replaying the episode (DESIGN.md §3j).
     */
    serving::CheckpointStore *checkpoints = nullptr;
    /** Store key of this episode (the cluster request index). */
    std::uint64_t episodeKey = 0;
    /**
     * Checkpoint to resume from, or null for a fresh start. The
     * caller must have matched kindTag against @ref kind (brownout
     * may downgrade the workflow between attempts) and restored the
     * prefix KV if priced cheaper than recompute; the workflow casts
     * `state` back and replays the journal.
     */
    const serving::EpisodeCheckpoint *resumeFrom = nullptr;

    /** The run's prompt heads (null: build each head afresh). */
    PromptHeadCache *heads = nullptr;

    const workload::BenchmarkProfile &
    profile() const
    {
        return workload::profile(task.benchmark);
    }

    /** Request-level RNG stream (behavioural randomness). */
    sim::Rng makeRng(std::string_view purpose) const;

    /**
     * The fixed head of the workflow's prompts — the instruction
     * shared by every task of (agent, benchmark), the few-shot
     * examples (resolved count), the per-task user query — hashed in
     * the engine's KV block size. The instruction and few-shot blocks
     * come from the run's @ref heads, so they are hashed once per
     * run; only the user query is hashed per episode. Build it once
     * per episode and copy it per call.
     */
    PromptBuilder promptPrefix() const;

    /**
     * The head of evaluator-role prompts (self-evaluation, critics,
     * verifiers): instruction and user query, no few-shot examples.
     */
    PromptBuilder evaluatorPrefix() const;

    /** The deterministic observation of tool call @p index: a run of
     *  @p count stream tokens. */
    Segment toolObservation(std::int64_t count,
                            std::uint64_t index) const;
};

/**
 * An LLM call hit a retryable serving failure: the node crashed (or
 * was offline) or shed the request at admission. The rollout cannot
 * continue on this node — its KV and conversation state are tied to
 * in-flight work that is gone — so the whole rollout should be
 * retried, typically on another node (see core::RetryPolicy).
 */
class NodeFailureError : public std::runtime_error
{
  public:
    NodeFailureError(std::string what, bool shed_)
        : std::runtime_error(std::move(what)), shed(shed_)
    {
    }

    /** True for admission-control shedding, false for a crash. */
    bool shed = false;
    /**
     * GPU-seconds the episode had attributed when the failure hit —
     * what a from-scratch retry recomputes. The cluster's recovery
     * accounting subtracts the last checkpoint's share to price what
     * checkpoint-resume actually saved.
     */
    double investedGpuSeconds = 0.0;
};

/**
 * An LLM call blew its per-call deadline (AgentConfig
 * ::llmDeadlineSeconds). Not retryable: the SLO is already missed, so
 * the rollout is abandoned and counted against goodput.
 */
class DeadlineExceededError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Issue one LLM call: build the request, await the engine, record the
 * span and token breakdown in @p trace, and return the result.
 *
 * Throws NodeFailureError when the engine reports a retryable failure
 * (node crash / load shed) and DeadlineExceededError when the call's
 * deadline expired; both propagate through the rollout's coroutine
 * chain to the cluster worker driving it.
 *
 * @param output_mean mean output length for this call role.
 * @param label trace label, e.g. "react.step" or "lats.value".
 * @param expected_park_seconds expected GPU-idle wait *after* this
 *        call (an imminent tool invocation); forwarded to the engine
 *        as the KV-parking hint. 0 when nothing idle follows.
 */
sim::Task<serving::GenResult>
callLlm(AgentContext &ctx, Trace &trace, sim::Rng &rng, Prompt prompt,
        double output_mean, std::string label,
        double expected_park_seconds = 0.0);

/**
 * Invoke a tool and record the span; returns the observation.
 */
sim::Task<tools::ToolResult> callTool(AgentContext &ctx, Trace &trace,
                                      sim::Rng &rng, tools::Tool &tool);

/**
 * RAII scope for a structural span (an agent iteration, a fan-out
 * stage): opens a child of ctx.spanParent and redirects the context's
 * parent to it for the scope's lifetime, so nested callLlm/callTool
 * (and parallel children launched inside the scope) attach under it.
 * The destructor closes the span at the current sim time — also on
 * exception unwind — and restores the previous parent. No-op when no
 * collector is attached.
 */
class SpanScope
{
  public:
    SpanScope(AgentContext &ctx, telemetry::SpanKind kind,
              std::string label)
        : ctx_(ctx), saved_(ctx.spanParent)
    {
        if (ctx_.spans != nullptr && ctx_.spanParent.valid()) {
            span_ = ctx_.spans->child(ctx_.spanParent, kind,
                                      std::move(label),
                                      ctx_.sim->now());
            ctx_.spanParent = span_;
        }
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    ~SpanScope()
    {
        if (span_.valid())
            ctx_.spans->end(span_, ctx_.sim->now());
        ctx_.spanParent = saved_;
    }

    const telemetry::SpanRef &ref() const { return span_; }

  private:
    AgentContext &ctx_;
    telemetry::SpanRef saved_;
    telemetry::SpanRef span_;
};

/** The agent interface: one workflow, stateless across runs. */
class Agent
{
  public:
    virtual ~Agent() = default;

    virtual AgentKind kind() const = 0;

    /** Execute one request; returns the full measurement record. */
    virtual sim::Task<AgentResult> run(AgentContext ctx) = 0;
};

/** Construct a workflow implementation. */
std::unique_ptr<Agent> makeAgent(AgentKind kind);

} // namespace agentsim::agents

#endif // AGENTSIM_AGENTS_AGENT_HH
