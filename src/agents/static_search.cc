/**
 * @file
 * The remaining static test-time-scaling baselines of the paper's §I
 * taxonomy (Fig 1b):
 *
 *  - Tree-of-Thoughts: breadth-limited deliberate search over
 *    internal reasoning steps with an LLM evaluator pruning the
 *    frontier — structured exploration without tools.
 *  - Best-of-N: N independent samples, each scored by an LLM
 *    verifier; the top-ranked sample is the answer.
 *
 * Both are knowledge-capped (no external evidence), so they improve
 * reasoning-heavy tasks (MATH) far more than knowledge-gated ones
 * (HotpotQA) — the contrast motivating the paper's focus on dynamic,
 * tool-augmented reasoning.
 */

#include <algorithm>

#include "agents/accuracy.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

namespace
{

/**
 * A thought node: one internal reasoning step. The node keeps its
 * path's two running prompts (proposer and evaluator), so a child
 * extends its parent's by its own output alone.
 */
struct Thought
{
    /** Progress toward the solution, in hops. */
    int hops = 0;
    /** Branch capability (latent-threshold model). */
    double capability = 0.0;
    /** The proposer prefix plus the LLM outputs along the path. */
    PromptBuilder think;
    /** The evaluator prefix plus the same path. */
    PromptBuilder judge;
};

/** Shared tool-less base capability for the current task. */
double
toollessBase(const AgentContext &ctx)
{
    return hopSuccessProb(ctx.config.modelQuality,
                          ctx.config.resolveFewShot(ctx.profile()), 0,
                          ctx.task.difficulty,
                          ctx.profile().noToolFactor);
}

/** One candidate thought expansion: an LLM call on the path. The
 *  rng is a copy, so the branch's own stream stays unadvanced. */
sim::Task<serving::GenResult>
proposeThought(AgentContext &ctx, Trace &trace, Prompt prompt,
               sim::Rng rng)
{
    co_return co_await callLlm(ctx, trace, rng, std::move(prompt),
                               ctx.profile().stepOutputMean,
                               "tot.think");
}

/** One verifier call over a sampled rationale / thought path. */
sim::Task<serving::GenResult>
scoreState(AgentContext &ctx, Trace &trace, Prompt prompt, sim::Rng rng,
           const char *label)
{
    co_return co_await callLlm(ctx, trace, rng, std::move(prompt),
                               ctx.profile().valueOutputMean, label);
}

} // namespace

sim::Task<AgentResult>
TreeOfThoughtsAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    const int breadth = std::max(1, ctx.config.latsChildren);
    const int depth = std::max(1, std::min(ctx.config.maxIterations,
                                           ctx.task.requiredHops + 2));
    const int keep = 2; // frontier width after pruning
    const double base = toollessBase(ctx);

    std::vector<Thought> frontier{
        Thought{0, 0.0, ctx.promptPrefix(), ctx.evaluatorPrefix()}};
    Thought best = frontier.front();
    int rounds = 0;

    for (int level = 0; level < depth; ++level) {
        ++rounds;
        // Propose `breadth` thoughts per frontier state, in parallel.
        std::vector<sim::Task<serving::GenResult>> proposals;
        std::vector<std::size_t> parents;
        std::vector<sim::Rng> rngs;
        for (std::size_t f = 0; f < frontier.size(); ++f) {
            for (int b = 0; b < breadth; ++b) {
                const auto disc =
                    (static_cast<std::uint64_t>(level) << 20) |
                    (static_cast<std::uint64_t>(f) << 10) |
                    static_cast<std::uint64_t>(b);
                rngs.emplace_back(ctx.seed, "tot.branch",
                                  sim::hashCombine(ctx.task.taskId,
                                                   disc));
                proposals.push_back(proposeThought(
                    ctx, trace, frontier[f].think.build(), rngs.back()));
                parents.push_back(f);
            }
        }
        std::vector<serving::GenResult> outputs =
            co_await sim::allOf(std::move(proposals));

        // Evaluate each candidate with the LLM (parallel).
        std::vector<Thought> candidates;
        std::vector<sim::Task<serving::GenResult>> scores;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            Thought child = frontier[parents[i]];
            child.think.add(SegmentKind::LlmHistory, outputs[i].output);
            child.judge.add(SegmentKind::LlmHistory, outputs[i].output);
            // Structured, evaluator-guided exploration searches the
            // reasoning space more deliberately than plain sampling
            // (trial-level sigma), but cannot conjure knowledge.
            child.capability = contextCapability(
                rngs[i], base, Calibration::exploreSigmaTrial);
            if (attemptHop(rngs[i], child.capability,
                           ctx.task.solveThreshold)) {
                ++child.hops;
            }
            scores.push_back(scoreState(ctx, trace, child.judge.build(),
                                        rngs[i], "tot.evaluate"));
            candidates.push_back(std::move(child));
        }
        co_await sim::allOf(std::move(scores));

        // Prune: keep the most advanced states.
        std::sort(candidates.begin(), candidates.end(),
                  [](const Thought &a, const Thought &b) {
                      return a.hops > b.hops;
                  });
        if (static_cast<int>(candidates.size()) > keep)
            candidates.erase(candidates.begin() + keep, candidates.end());
        frontier = std::move(candidates);
        if (frontier.front().hops > best.hops)
            best = frontier.front();
        if (best.hops >= ctx.task.requiredHops)
            break;
    }

    // Final answer from the best path.
    sim::Rng rng = ctx.makeRng("answer");
    co_await scoreState(ctx, trace, best.judge.build(), rng,
                        "tot.answer");
    const bool solved =
        sampleAnswer(rng, best.hops, ctx.task.requiredHops);

    trace.setIterations(rounds);
    co_return trace.finish(solved, ctx.sim->now());
}

sim::Task<AgentResult>
BestOfNAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    const auto &prof = ctx.profile();
    const int samples = std::max(1, ctx.config.scSamples);
    const double base = toollessBase(ctx);

    // Phase 1: N parallel full rationales.
    const Prompt prompt = ctx.promptPrefix().build();
    const PromptBuilder verifier_prefix = ctx.evaluatorPrefix();

    struct Sampled
    {
        bool correct = false;
    };
    std::vector<sim::Task<serving::GenResult>> gens;
    std::vector<sim::Rng> rngs;
    for (int s = 0; s < samples; ++s) {
        rngs.emplace_back(ctx.seed, "bon.sample",
                          sim::hashCombine(ctx.task.taskId,
                                           static_cast<std::uint64_t>(
                                               s)));
        gens.push_back(callLlm(ctx, trace, rngs.back(), prompt,
                               prof.cotOutputMean, "bon.sample"));
    }
    std::vector<serving::GenResult> outputs =
        co_await sim::allOf(std::move(gens));

    std::vector<Sampled> sampled;
    for (int s = 0; s < samples; ++s) {
        Sampled entry;
        const double capability = contextCapability(
            rngs[static_cast<std::size_t>(s)], base,
            Calibration::exploreSigmaSample);
        entry.correct = oneShotSolve(
            rngs[static_cast<std::size_t>(s)], capability,
            ctx.task.solveThreshold);
        sampled.push_back(std::move(entry));
    }

    // Phase 2: one verifier call per sample, in parallel.
    std::vector<sim::Task<serving::GenResult>> verifications;
    for (int s = 0; s < samples; ++s) {
        PromptBuilder verify = verifier_prefix;
        verify.add(SegmentKind::LlmHistory,
                   outputs[static_cast<std::size_t>(s)].output);
        verifications.push_back(
            scoreState(ctx, trace, verify.build(),
                       rngs[static_cast<std::size_t>(s)], "bon.verify"));
    }
    co_await sim::allOf(std::move(verifications));

    // Ranking: a fallible verifier surfaces a correct sample, if any,
    // with criticApproveCorrect probability; otherwise the top pick
    // is wrong (tiny luck term covers lenient graders).
    sim::Rng rng = ctx.makeRng("rank");
    bool any_correct = false;
    for (const auto &entry : sampled)
        any_correct |= entry.correct;
    const bool solved =
        any_correct
            ? rng.bernoulli(Calibration::criticApproveCorrect)
            : rng.bernoulli(Calibration::pLuck);

    trace.setIterations(1);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
