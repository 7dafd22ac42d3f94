/**
 * @file
 * ReAct: iterate (thought+action LLM call, tool execution,
 * observation) until the agent believes it can answer or the
 * iteration budget runs out.
 */

#include "agents/accuracy.hh"
#include "agents/workflows.hh"

namespace agentsim::agents
{

PromptBuilder
trialPrompt(PromptBuilder prefix, const EpisodicMemory &episodic,
            const TrajectoryMemory &memory)
{
    episodic.appendTo(prefix);
    memory.appendTo(prefix);
    return prefix;
}

double
kvBytesPerToken(const serving::LlmEngine &engine)
{
    return static_cast<double>(engine.blockBytes()) /
           static_cast<double>(engine.config().blockSize);
}

sim::Task<TrialOutcome>
runToolLoopTrial(AgentContext &ctx, Trace &trace, sim::Rng &rng,
                 const PromptBuilder &prefix, TrajectoryMemory &memory,
                 const EpisodicMemory &episodic, int reflections,
                 std::uint64_t call_base,
                 const ReactEpisodeState *resume,
                 const TrialCheckpointFn &checkpoint)
{
    const auto &prof = ctx.profile();
    const int few_shot = ctx.config.resolveFewShot(prof);
    const int required = ctx.task.requiredHops;

    // One trial = one execution context: its capability is drawn once
    // (latent-threshold model, accuracy.hh), so repeating trials on a
    // hard task mostly repeats the failure. A resumed trial reuses
    // the journaled draw (the restored rng stream sits past it); a
    // trial-boundary snapshot draws from the restored stream exactly
    // where the uninterrupted run would have.
    const double base = hopSuccessProb(ctx.config.modelQuality,
                                       few_shot, reflections,
                                       ctx.task.difficulty);
    const double capability =
        (resume != nullptr && resume->capabilityDrawn)
            ? resume->capability
            : contextCapability(rng, base,
                                Calibration::exploreSigmaTrial);

    TrialOutcome outcome;
    if (resume != nullptr)
        outcome = resume->outcome;

    // The running prompt: every step re-sends it and appends to it,
    // so only the new segments are hashed.
    PromptBuilder prompt = trialPrompt(prefix, episodic, memory);
    auto remember = [&](Segment segment) {
        prompt.add(segment);
        memory.append(std::move(segment));
    };

    for (int iter = outcome.iterations;
         iter < ctx.config.maxIterations; ++iter) {
        SpanScope iteration(ctx, telemetry::SpanKind::Iteration,
                            "react.iter");

        // Speculative tool invocation (keytakeaway #1): predict the
        // next action and launch its tool call concurrently with the
        // reasoning LLM call. Skipped when the agent is about to
        // Finish (it knows no tool is needed).
        std::optional<sim::Task<tools::ToolResult>> speculated;
        if (ctx.config.speculativeTools &&
            outcome.hopsFound < required) {
            tools::Tool &guess = ctx.tools->pick(rng);
            speculated.emplace(callTool(ctx, trace, rng, guess));
        }

        // A tool call follows unless this step is the Finish action
        // (or the tool already runs concurrently via speculation), so
        // hint the engine to park this chain over the expected wait.
        const double park =
            (outcome.hopsFound < required && !speculated)
                ? ctx.tools->meanLatencySeconds()
                : 0.0;
        serving::GenResult gen = co_await callLlm(
            ctx, trace, rng, prompt.build(), prof.stepOutputMean,
            "react.step", park);
        remember(Segment{SegmentKind::LlmHistory, gen.output});
        ++outcome.iterations;

        if (outcome.hopsFound >= required) {
            // That call was the Finish action: commit to an answer.
            outcome.answeredCorrectly =
                sampleAnswer(rng, outcome.hopsFound, required);
            co_return outcome;
        }

        // Act: obtain the observation — from the speculated call if
        // the prediction matched, otherwise by invoking the tool the
        // LLM actually chose (the speculation is wasted work).
        tools::ToolResult obs;
        if (speculated &&
            rng.bernoulli(Calibration::specToolHitProb)) {
            obs = co_await *speculated;
        } else {
            if (speculated)
                co_await *speculated; // discard the wrong prefetch
            tools::Tool &tool = ctx.tools->pick(rng);
            obs = co_await callTool(ctx, trace, rng, tool);
        }
        remember(ctx.toolObservation(
            obs.observationTokens,
            call_base + static_cast<std::uint64_t>(iter)));

        const bool found =
            attemptHop(rng, capability, ctx.task.solveThreshold);
        if (found) {
            ++outcome.hopsFound;
        } else if (outcome.hopsFound < required &&
                   rng.bernoulli(Calibration::earlyFinishProb)) {
            // Premature Finish: the agent concludes from partial
            // evidence (a real ReAct failure mode, and the source of
            // the wide per-request step-count variance).
            outcome.answeredCorrectly =
                sampleAnswer(rng, outcome.hopsFound, required);
            co_return outcome;
        }

        // Iteration complete (every draw included): journal. Episodes
        // that return above finished — nothing left to recover.
        if (checkpoint)
            checkpoint(outcome, memory, prompt.chain(), capability, rng);
    }

    // Budget exhausted: forced answer from partial evidence.
    outcome.answeredCorrectly =
        sampleAnswer(rng, outcome.hopsFound, required);
    co_return outcome;
}

sim::Task<AgentResult>
ReActAgent::run(AgentContext ctx)
{
    Trace trace(ctx.sim->now());
    sim::Rng rng = ctx.makeRng("run");

    TrajectoryMemory memory;
    EpisodicMemory episodic;

    // Journal replay: restore the trial exactly as checkpointed at
    // the last completed iteration of the previous attempt.
    const ReactEpisodeState *resume = nullptr;
    std::shared_ptr<const void> resume_keepalive;
    if (ctx.resumeFrom != nullptr &&
        ctx.resumeFrom->kindTag ==
            static_cast<int>(AgentKind::ReAct)) {
        // Re-checkpointing overwrites the store entry mid-run; pin
        // the snapshot we are replaying from.
        resume_keepalive = ctx.resumeFrom->state;
        resume = static_cast<const ReactEpisodeState *>(
            resume_keepalive.get());
        trace = resume->trace;
        rng = resume->rng;
        memory = resume->memory;
    }

    TrialCheckpointFn checkpoint;
    if (ctx.checkpoints != nullptr && ctx.checkpoints->policy().enabled) {
        checkpoint = [&ctx, &trace](const TrialOutcome &outcome,
                                    const TrajectoryMemory &memory_now,
                                    const kv::TokenChain &chain,
                                    double capability,
                                    const sim::Rng &rng_now) {
            if (!ctx.checkpoints->shouldCheckpoint(ctx.episodeKey,
                                                   outcome.iterations))
                return;
            auto state =
                std::make_shared<ReactEpisodeState>(rng_now, trace);
            state->outcome = outcome;
            state->memory = memory_now;
            state->capabilityDrawn = true;
            state->capability = capability;
            serving::EpisodeCheckpoint ckpt;
            ckpt.kindTag = static_cast<int>(AgentKind::ReAct);
            ckpt.iteration = outcome.iterations;
            ckpt.takenTick = ctx.sim->now();
            ckpt.chain = chain;
            ckpt.gpuSeconds = trace.cost().gpuSeconds();
            ckpt.state = std::move(state);
            ctx.checkpoints->put(ctx.episodeKey, std::move(ckpt),
                                 kvBytesPerToken(*ctx.engine));
        };
    }

    const PromptBuilder prefix = ctx.promptPrefix();
    TrialOutcome outcome = co_await runToolLoopTrial(
        ctx, trace, rng, prefix, memory, episodic, 0, 0, resume,
        checkpoint);

    trace.setIterations(outcome.iterations);
    co_return trace.finish(outcome.answeredCorrectly, ctx.sim->now());
}

} // namespace agentsim::agents
