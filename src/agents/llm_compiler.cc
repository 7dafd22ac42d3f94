/**
 * @file
 * LLMCompiler: a planner LLM emits a DAG of tool calls which a
 * streaming executor dispatches as soon as (a) the plan fragment
 * naming them has been generated and (b) their dependencies have
 * completed. Planning and tool execution therefore overlap — the pink
 * "Overlap" share of the paper's Fig 5 — and a joiner LLM call fuses
 * the results (with bounded replanning rounds).
 *
 * On benchmarks whose tool calls are highly interdependent (WebShop),
 * the sampled DAG degenerates toward a chain and planned calls lose
 * effectiveness (dagFactor), reproducing the paper's §V-A finding.
 */

#include <algorithm>
#include <cmath>

#include "agents/accuracy.hh"
#include "agents/plan.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

namespace
{

/** Result of one executed plan node. */
struct NodeOutcome
{
    int id = 0;
    std::int64_t observationTokens = 0;
    bool foundHop = false;
};

/**
 * Execute plan node @p id: wait for its dependencies, run the tool,
 * report completion.
 */
sim::Task<NodeOutcome>
executeNode(AgentContext &ctx, Trace &trace, int id,
            const std::vector<int> deps,
            std::vector<sim::Completion<int>> &done, double capability,
            double threshold, sim::Rng rng)
{
    for (int dep : deps)
        co_await done[static_cast<std::size_t>(dep)];

    tools::Tool &tool = ctx.tools->pick(rng);
    tools::ToolResult obs = co_await callTool(ctx, trace, rng, tool);

    NodeOutcome outcome;
    outcome.id = id;
    outcome.observationTokens = obs.observationTokens;
    outcome.foundHop = attemptHop(rng, capability, threshold);
    done[static_cast<std::size_t>(id)].set(1);
    co_return outcome;
}

} // namespace

sim::Task<AgentResult>
LlmCompilerAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    sim::Rng rng = ctx.makeRng("run");
    const auto &prof = ctx.profile();
    const int required = ctx.task.requiredHops;
    const int few_shot = ctx.config.resolveFewShot(prof);

    // The running prompt: the fixed head, then every plan fragment,
    // observation and join output in order.
    PromptBuilder prompt = ctx.promptPrefix();
    int hops = 0;
    bool solved = false;
    int rounds_used = 0;

    for (int round = 0; round < ctx.config.compilerMaxRounds; ++round) {
        SpanScope iteration(ctx, telemetry::SpanKind::Iteration,
                            "compiler.round");
        ++rounds_used;

        // Plan size: remaining hops inflated by DAG over-fetch.
        const int remaining = required - hops;
        const int plan_size = std::clamp(
            static_cast<int>(std::lround(
                remaining * (1.0 + prof.dagOverFetch))),
            2, 8);
        PlanGraph plan =
            PlanGraph::sample(rng, plan_size, prof.dagDepProb);
        plan.checkInvariants();

        // One plan-execute round is one execution context; DAG-planned
        // calls lose effectiveness where tool use is interdependent.
        const double base = hopSuccessProb(
            ctx.config.modelQuality, few_shot, 0, ctx.task.difficulty,
            prof.dagFactor);
        const double capability = contextCapability(
            rng, base, Calibration::exploreSigmaTrial);

        // Streamed planning: the plan is generated in plan_size
        // fragments; each fragment's tool task launches immediately
        // (subject to DAG dependencies) while later fragments are
        // still being planned — this is the LLM/tool overlap.
        std::vector<sim::Completion<int>> done;
        done.reserve(static_cast<std::size_t>(plan_size));
        for (int i = 0; i < plan_size; ++i)
            done.emplace_back(*ctx.sim);

        std::vector<sim::Task<NodeOutcome>> node_tasks;
        node_tasks.reserve(static_cast<std::size_t>(plan_size));

        const double fragment_mean =
            prof.plannerOutputMean / plan_size;
        for (int i = 0; i < plan_size; ++i) {
            // Earlier fragments overlap with already-launched tool
            // tasks (the GPU stays busy planning); only after the
            // *last* fragment does the agent block on the DAG's
            // remaining tool calls, so only it carries a parking hint.
            const double park = i == plan_size - 1
                                    ? ctx.tools->meanLatencySeconds()
                                    : 0.0;
            serving::GenResult fragment = co_await callLlm(
                ctx, trace, rng, prompt.build(), fragment_mean,
                "compiler.plan", park);
            prompt.add(SegmentKind::LlmHistory, fragment.output);

            const auto obs_index =
                (static_cast<std::uint64_t>(round) << 16) |
                static_cast<std::uint64_t>(i);
            sim::Rng node_rng(
                ctx.seed, "compiler.node",
                sim::hashCombine(ctx.task.taskId, obs_index));
            node_tasks.push_back(executeNode(
                ctx, trace, i,
                plan.nodes()[static_cast<std::size_t>(i)].deps, done,
                capability, ctx.task.solveThreshold, node_rng));
        }

        std::vector<NodeOutcome> outcomes =
            co_await sim::allOf(std::move(node_tasks));

        for (const auto &outcome : outcomes) {
            prompt.add(ctx.toolObservation(
                outcome.observationTokens,
                (static_cast<std::uint64_t>(round) << 16) |
                    static_cast<std::uint64_t>(outcome.id)));
            if (outcome.foundHop && hops < required)
                ++hops;
        }

        // Joiner: fuse observations; answer or decide to replan.
        serving::GenResult join = co_await callLlm(
            ctx, trace, rng, prompt.build(), prof.finalOutputMean,
            "compiler.join");
        prompt.add(SegmentKind::LlmHistory, join.output);

        if (hops >= required) {
            solved = sampleAnswer(rng, hops, required);
            break;
        }
    }

    if (!solved && hops < required) {
        // All rounds spent: forced answer from partial evidence.
        solved = sampleAnswer(rng, hops, required);
    }

    trace.setIterations(rounds_used);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
