/**
 * @file
 * Actor-critic collaboration (extension): the role-based multi-agent
 * pattern of CAMEL/AutoGen (paper §VII related work) distilled to two
 * roles. The *actor* runs a ReAct-style tool loop to draft an answer;
 * the *critic* — a second LLM role — reviews the full trajectory and
 * either accepts it or returns feedback that the actor folds into its
 * episodic memory before retrying.
 *
 * The critic is an internal, fallible judge (unlike Reflexion, whose
 * retries are driven by the environment's exact-match reward): it
 * sometimes ships a wrong answer and sometimes sends a correct one
 * back for a pointless, expensive revision — the cost/quality
 * trade-off the ext_multi_agent bench quantifies.
 */

#include "agents/accuracy.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

sim::Task<AgentResult>
ActorCriticAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    sim::Rng rng = ctx.makeRng("run");
    const auto &prof = ctx.profile();

    EpisodicMemory critiques;
    bool solved = false;
    int iterations_total = 0;
    int rounds_used = 0;
    const PromptBuilder prefix = ctx.promptPrefix();
    const PromptBuilder review_prefix = ctx.evaluatorPrefix();

    for (int round = 0; round <= ctx.config.maxReflections; ++round) {
        ++rounds_used;
        // Actor: draft a solution with a fresh short-term trajectory,
        // carrying the critic's accumulated feedback.
        TrajectoryMemory memory;
        TrialOutcome draft = co_await runToolLoopTrial(
            ctx, trace, rng, prefix, memory, critiques, round,
            (static_cast<std::uint64_t>(round) << 32) | 0xac0000ULL);
        iterations_total += draft.iterations;

        // Critic: review the trajectory (separate role, own call).
        PromptBuilder review =
            trialPrompt(review_prefix, critiques, memory);
        serving::GenResult verdict = co_await callLlm(
            ctx, trace, rng, review.build(), prof.valueOutputMean,
            "critic.review");

        const double approve_prob =
            draft.answeredCorrectly
                ? Calibration::criticApproveCorrect
                : Calibration::criticApproveWrong;
        if (rng.bernoulli(approve_prob) ||
            round == ctx.config.maxReflections) {
            // Accepted (or out of rounds): the draft is the answer —
            // right or wrong.
            solved = draft.answeredCorrectly;
            break;
        }

        // Rejected: the critic writes actionable feedback the actor
        // carries into the next round, extending its review prompt.
        review.add(SegmentKind::LlmHistory, verdict.output);
        serving::GenResult critique = co_await callLlm(
            ctx, trace, rng, review.build(),
            prof.reflectionOutputMean, "critic.feedback");
        critiques.append(
            Segment{SegmentKind::LlmHistory, critique.output});
    }

    trace.setIterations(iterations_total);
    trace.setReflections(rounds_used - 1);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
