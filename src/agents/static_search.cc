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

/** A thought node: one internal reasoning step. */
struct Thought
{
    /** Progress toward the solution, in hops. */
    int hops = 0;
    /** Branch capability (latent-threshold model). */
    double capability = 0.0;
    /** LLM output tokens along the path (for prompt growth). */
    std::vector<kv::TokenId> pathTokens;
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

/** One candidate thought expansion: an LLM call on the path. */
sim::Task<serving::GenResult>
proposeThought(AgentContext &ctx, Trace &trace,
               const PromptBuilder &prefix, const Thought &parent,
               sim::Rng rng)
{
    PromptBuilder builder = prefix;
    builder.add(SegmentKind::LlmHistory, parent.pathTokens);
    co_return co_await callLlm(ctx, trace, rng, builder.build(),
                               ctx.profile().stepOutputMean,
                               "tot.think");
}

/** One verifier call over a sampled rationale / thought path. */
sim::Task<serving::GenResult>
scoreState(AgentContext &ctx, Trace &trace,
           const PromptBuilder &verifier_prefix,
           const std::vector<kv::TokenId> &path, sim::Rng rng,
           const char *label)
{
    PromptBuilder builder = verifier_prefix;
    builder.add(SegmentKind::LlmHistory, path);
    co_return co_await callLlm(ctx, trace, rng, builder.build(),
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

    const PromptBuilder prefix = ctx.promptPrefix();
    const PromptBuilder verifier_prefix = ctx.evaluatorPrefix();

    std::vector<Thought> frontier{Thought{}};
    Thought best;
    int rounds = 0;

    for (int level = 0; level < depth; ++level) {
        ++rounds;
        // Propose `breadth` thoughts per frontier state, in parallel.
        std::vector<sim::Task<serving::GenResult>> proposals;
        std::vector<Thought> parents;
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
                    ctx, trace, prefix, frontier[f], rngs.back()));
                parents.push_back(frontier[f]);
            }
        }
        std::vector<serving::GenResult> outputs =
            co_await sim::allOf(std::move(proposals));

        // Evaluate each candidate with the LLM (parallel).
        std::vector<Thought> candidates;
        std::vector<sim::Task<serving::GenResult>> scores;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            Thought child = parents[i];
            child.pathTokens.insert(child.pathTokens.end(),
                                    outputs[i].tokens.begin(),
                                    outputs[i].tokens.end());
            // Structured, evaluator-guided exploration searches the
            // reasoning space more deliberately than plain sampling
            // (trial-level sigma), but cannot conjure knowledge.
            child.capability = contextCapability(
                rngs[i], base, Calibration::exploreSigmaTrial);
            if (attemptHop(rngs[i], child.capability,
                           ctx.task.solveThreshold)) {
                ++child.hops;
            }
            scores.push_back(scoreState(ctx, trace, verifier_prefix,
                                        child.pathTokens, rngs[i],
                                        "tot.evaluate"));
            candidates.push_back(std::move(child));
        }
        co_await sim::allOf(std::move(scores));

        // Prune: keep the most advanced states.
        std::sort(candidates.begin(), candidates.end(),
                  [](const Thought &a, const Thought &b) {
                      return a.hops > b.hops;
                  });
        if (static_cast<int>(candidates.size()) > keep)
            candidates.resize(static_cast<std::size_t>(keep));
        frontier = candidates;
        if (frontier.front().hops > best.hops)
            best = frontier.front();
        if (best.hops >= ctx.task.requiredHops)
            break;
    }

    // Final answer from the best path.
    sim::Rng rng = ctx.makeRng("answer");
    co_await scoreState(ctx, trace, verifier_prefix, best.pathTokens,
                        rng, "tot.answer");
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
        verifications.push_back(scoreState(
            ctx, trace, verifier_prefix,
            outputs[static_cast<std::size_t>(s)].tokens,
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
