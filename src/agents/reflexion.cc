/**
 * @file
 * Reflexion: run ReAct-style trials; after a failed trial, evaluate
 * the trajectory and distill a verbal reflection into episodic
 * (long-term) memory, then retry with a cleared short-term trajectory.
 * Reflections raise subsequent per-hop success probabilities but each
 * retry replays the full iteration cost — the paper's canonical
 * *sequential* test-time scaling.
 */

#include "agents/accuracy.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

namespace
{

/**
 * Full Reflexion episode snapshot: the inner trial state plus the
 * cross-trial loop position. Snapshots taken between trials (after a
 * reflection) carry a fresh inner state with capabilityDrawn=false —
 * the resumed trial draws its capability from the restored stream,
 * exactly as the uninterrupted run would have.
 */
struct ReflexionEpisodeState
{
    ReactEpisodeState inner;
    EpisodicMemory episodic;
    int trial = 0;
    /** iterations_total before the current trial started. */
    int iterationsBefore = 0;
    int reflectionsUsed = 0;

    ReflexionEpisodeState(const sim::Rng &rng, const Trace &trace)
        : inner(rng, trace)
    {
    }
};

} // namespace

sim::Task<AgentResult>
ReflexionAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    sim::Rng rng = ctx.makeRng("run");
    const auto &prof = ctx.profile();

    EpisodicMemory episodic;
    bool solved = false;
    int iterations_total = 0;
    int reflections_used = 0;
    int first_trial = 0;

    // Journal replay: rejoin the trial loop exactly where the last
    // checkpoint of the previous attempt left it.
    const ReflexionEpisodeState *resume = nullptr;
    std::shared_ptr<const void> resume_keepalive;
    if (ctx.resumeFrom != nullptr &&
        ctx.resumeFrom->kindTag ==
            static_cast<int>(AgentKind::Reflexion)) {
        // Re-checkpointing overwrites the store entry mid-run; pin
        // the snapshot we are replaying from.
        resume_keepalive = ctx.resumeFrom->state;
        resume = static_cast<const ReflexionEpisodeState *>(
            resume_keepalive.get());
        trace = resume->inner.trace;
        rng = resume->inner.rng;
        episodic = resume->episodic;
        iterations_total = resume->iterationsBefore;
        reflections_used = resume->reflectionsUsed;
        first_trial = resume->trial;
    }

    // Fixed prompt heads, hashed once per episode: the trial prefix
    // and the (few-shot-free) self-evaluation prefix.
    const PromptBuilder prefix = ctx.promptPrefix();
    const PromptBuilder review_prefix = ctx.evaluatorPrefix();

    const bool journaling = ctx.checkpoints != nullptr &&
                            ctx.checkpoints->policy().enabled;
    auto journal = [&](std::shared_ptr<ReflexionEpisodeState> state,
                       int completed_iterations,
                       const kv::TokenChain &chain) {
        serving::EpisodeCheckpoint ckpt;
        ckpt.kindTag = static_cast<int>(AgentKind::Reflexion);
        ckpt.iteration = completed_iterations;
        ckpt.takenTick = ctx.sim->now();
        ckpt.chain = chain;
        ckpt.gpuSeconds = trace.cost().gpuSeconds();
        ckpt.state = std::move(state);
        ctx.checkpoints->put(ctx.episodeKey, std::move(ckpt),
                             kvBytesPerToken(*ctx.engine));
    };

    for (int trial = first_trial; trial <= ctx.config.maxReflections;
         ++trial) {
        TrajectoryMemory memory; // short-term memory resets per trial
        const ReactEpisodeState *inner_resume = nullptr;
        if (resume != nullptr && trial == first_trial) {
            inner_resume = &resume->inner;
            memory = resume->inner.memory;
        }

        TrialCheckpointFn checkpoint;
        if (journaling) {
            const int iterations_before = iterations_total;
            checkpoint = [&, trial, iterations_before](
                             const TrialOutcome &outcome,
                             const TrajectoryMemory &memory_now,
                             const kv::TokenChain &chain,
                             double capability,
                             const sim::Rng &rng_now) {
                const int completed =
                    iterations_before + outcome.iterations;
                if (!ctx.checkpoints->shouldCheckpoint(ctx.episodeKey,
                                                       completed))
                    return;
                auto state = std::make_shared<ReflexionEpisodeState>(
                    rng_now, trace);
                state->inner.outcome = outcome;
                state->inner.memory = memory_now;
                state->inner.capabilityDrawn = true;
                state->inner.capability = capability;
                state->episodic = episodic;
                state->trial = trial;
                state->iterationsBefore = iterations_before;
                state->reflectionsUsed = reflections_used;
                journal(std::move(state), completed, chain);
            };
        }

        TrialOutcome outcome = co_await runToolLoopTrial(
            ctx, trace, rng, prefix, memory, episodic, reflections_used,
            static_cast<std::uint64_t>(trial) << 32, inner_resume,
            checkpoint);
        iterations_total += outcome.iterations;

        if (outcome.answeredCorrectly) {
            solved = true;
            break;
        }
        if (trial == ctx.config.maxReflections)
            break; // no retries left

        // Self-evaluation over the failed trajectory. The reflection
        // call re-sends the same prompt.
        const Prompt review =
            trialPrompt(review_prefix, episodic, memory).build();
        co_await callLlm(ctx, trace, rng, review, prof.valueOutputMean,
                         "reflexion.evaluate");

        // Verbal reflection, appended to long-term memory. The
        // reflection text is the LLM's own output tokens, so later
        // prompts that embed it share its token ids.
        serving::GenResult reflection = co_await callLlm(
            ctx, trace, rng, review, prof.reflectionOutputMean,
            "reflexion.reflect");
        episodic.addReflection(reflection.tokens);
        ++reflections_used;

        // Trial-boundary snapshot: without it, a crash during the
        // next trial's first iteration (or during evaluate/reflect)
        // would replay this whole trial's tail. The fresh inner state
        // (capabilityDrawn=false) makes the resumed trial draw its
        // capability from the restored stream.
        if (journaling &&
            ctx.checkpoints->shouldCheckpoint(ctx.episodeKey,
                                              iterations_total)) {
            auto state =
                std::make_shared<ReflexionEpisodeState>(rng, trace);
            state->episodic = episodic;
            state->trial = trial + 1;
            state->iterationsBefore = iterations_total;
            state->reflectionsUsed = reflections_used;
            // The next trial restarts from the prefix chain.
            journal(std::move(state), iterations_total,
                    trialPrompt(prefix, episodic, TrajectoryMemory{})
                        .chain());
        }
    }

    trace.setIterations(iterations_total);
    trace.setReflections(reflections_used);
    co_return trace.finish(solved, ctx.sim->now());
}

} // namespace agentsim::agents
