/**
 * @file
 * Chain-of-Thought: a single LLM call mapping the prompt straight to a
 * long rationale plus answer, with no external interaction.
 */

#include "agents/accuracy.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

sim::Task<AgentResult>
CotAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    sim::Rng rng = ctx.makeRng("run");

    co_await callLlm(ctx, trace, rng, ctx.promptPrefix().build(),
                     ctx.profile().cotOutputMean, "cot.reason");

    // One holistic attempt from parametric knowledge: no tool access
    // (the benchmark's noToolFactor) and no retries.
    const double base = hopSuccessProb(
        ctx.config.modelQuality,
        ctx.config.resolveFewShot(ctx.profile()), 0,
        ctx.task.difficulty, ctx.profile().noToolFactor);
    const double capability = contextCapability(
        rng, base, Calibration::exploreSigmaTrial);
    const bool solved =
        oneShotSolve(rng, capability, ctx.task.solveThreshold);

    trace.setIterations(1);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
