/**
 * @file
 * Self-Consistency: sample N independent chain-of-thought rationales
 * in parallel (high-temperature decoding) and majority-vote the final
 * answers. Wrong rationales scatter across distinct answers while
 * correct ones agree, so the vote succeeds once at least two samples
 * are right — the classic static parallel test-time scaling this
 * library adds as a baseline against the paper's agentic scaling.
 *
 * The N samples share their entire prompt, so with prefix caching the
 * engine computes the prefill once — the same sharing pattern LATS's
 * parallel expansions exhibit (Fig 12).
 */

#include <algorithm>

#include "agents/accuracy.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

namespace
{

/** One sampled rationale: the LLM call plus its latent correctness. */
sim::Task<bool>
sampleRationale(AgentContext &ctx, Trace &trace, Prompt prompt,
                sim::Rng rng)
{
    co_await callLlm(ctx, trace, rng, std::move(prompt),
                     ctx.profile().cotOutputMean, "sc.sample");
    // Each high-temperature sample is its own exploration context —
    // but decoding diversity only varies the reasoning path; it
    // cannot supply knowledge the model lacks (narrow sigma).
    const double base = hopSuccessProb(
        ctx.config.modelQuality,
        ctx.config.resolveFewShot(ctx.profile()), 0,
        ctx.task.difficulty, ctx.profile().noToolFactor);
    const double capability = contextCapability(
        rng, base, Calibration::exploreSigmaSample);
    co_return oneShotSolve(rng, capability, ctx.task.solveThreshold);
}

} // namespace

sim::Task<AgentResult>
SelfConsistencyAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    const int samples = std::max(1, ctx.config.scSamples);

    const Prompt prompt = ctx.promptPrefix().build();

    // One iteration span scopes the sample fan-out: the N sc.sample
    // LlmCall children overlap, and critical-path blame lands on the
    // last-finishing sibling.
    std::vector<bool> verdicts;
    {
        SpanScope fanout(ctx, telemetry::SpanKind::Iteration,
                         "sc.fanout");
        std::vector<sim::Task<bool>> tasks;
        tasks.reserve(static_cast<std::size_t>(samples));
        for (int s = 0; s < samples; ++s) {
            sim::Rng sample_rng(ctx.seed, "sc.sample",
                                sim::hashCombine(
                                    ctx.task.taskId,
                                    static_cast<std::uint64_t>(s)));
            tasks.push_back(
                sampleRationale(ctx, trace, prompt, sample_rng));
        }
        verdicts = co_await sim::allOf(std::move(tasks));
    }

    // Plurality vote: correct answers agree; incorrect ones scatter,
    // so two agreeing correct samples beat any wrong singleton. A
    // lone sample degenerates to plain CoT.
    const auto correct = static_cast<int>(
        std::count(verdicts.begin(), verdicts.end(), true));
    const bool solved =
        samples == 1 ? correct == 1 : correct >= 2;

    trace.setIterations(1);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
