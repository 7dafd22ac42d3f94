#include "agents/agent.hh"

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "workload/token_stream.hh"

namespace agentsim::agents
{

std::string_view
agentName(AgentKind kind)
{
    switch (kind) {
      case AgentKind::CoT:
        return "CoT";
      case AgentKind::ReAct:
        return "ReAct";
      case AgentKind::Reflexion:
        return "Reflexion";
      case AgentKind::Lats:
        return "LATS";
      case AgentKind::LlmCompiler:
        return "LLMCompiler";
      case AgentKind::SelfConsistency:
        return "SelfConsistency";
      case AgentKind::ActorCritic:
        return "ActorCritic";
      case AgentKind::TreeOfThoughts:
        return "ToT";
      case AgentKind::BestOfN:
        return "BestOfN";
    }
    AGENTSIM_PANIC("unknown agent kind");
}

Capabilities
capabilities(AgentKind kind)
{
    // Paper Table I.
    switch (kind) {
      case AgentKind::CoT:
        return {true, false, false, false, false};
      case AgentKind::ReAct:
        return {true, true, false, false, false};
      case AgentKind::Reflexion:
        return {true, true, true, false, false};
      case AgentKind::Lats:
        return {true, true, true, true, false};
      case AgentKind::LlmCompiler:
        return {true, true, true, false, true};
      case AgentKind::SelfConsistency:
        // Static reasoning with multi-sample decoding: no tools.
        return {true, false, false, false, false};
      case AgentKind::ActorCritic:
        // Tool-using actor plus a reflective critic role.
        return {true, true, true, false, false};
      case AgentKind::TreeOfThoughts:
        // Tree search over internal thoughts, no tools.
        return {true, false, false, true, false};
      case AgentKind::BestOfN:
        return {true, false, false, false, false};
    }
    AGENTSIM_PANIC("unknown agent kind");
}

bool
agentSupports(AgentKind kind, workload::Benchmark benchmark)
{
    if (benchmark == workload::Benchmark::ShareGpt)
        return false; // non-agentic baseline
    const auto &prof = workload::profile(benchmark);
    if (kind == AgentKind::CoT ||
        kind == AgentKind::SelfConsistency ||
        kind == AgentKind::TreeOfThoughts ||
        kind == AgentKind::BestOfN) {
        // Language-only reasoning: needs a benchmark solvable without
        // environment interaction.
        return prof.supportsCot;
    }
    if (kind == AgentKind::LlmCompiler)
        return prof.supportsLlmCompiler;
    return true;
}

sim::Rng
AgentContext::makeRng(std::string_view purpose) const
{
    const std::uint64_t stream = sim::hashCombine(
        sim::hashCombine(sim::fnv1a(agentName(kind)),
                         sim::fnv1a(workload::benchmarkName(
                             task.benchmark))),
        sim::fnv1a(purpose));
    return sim::Rng(seed, "agent", sim::hashCombine(stream, task.taskId));
}

namespace
{

/**
 * The instruction, then @p few_shot examples: the head shared by
 * every task of (agent, benchmark). The serving-level cross-request
 * prefix hits of Fig 15 come from here.
 */
PromptBuilder
buildHead(const AgentContext &ctx, int few_shot)
{
    const std::string tag = std::string(agentName(ctx.kind)) + "." +
                            std::string(workload::benchmarkName(
                                ctx.task.benchmark));
    PromptBuilder builder(ctx.engine->config().blockSize);
    builder.add(SegmentKind::Instruction,
                {workload::streamId(ctx.seed, "instr." + tag), 0,
                 ctx.profile().instructionTokens});
    builder.add(SegmentKind::FewShot,
                {workload::streamId(ctx.seed, "fewshot." + tag), 0,
                 few_shot * ctx.profile().fewShotTokensPerExample});
    return builder;
}

/** The run's head for @p few_shot examples, built on first use. */
PromptBuilder
cachedHead(const AgentContext &ctx, int few_shot)
{
    if (ctx.heads == nullptr)
        return buildHead(ctx, few_shot);
    const PromptHeadCache::key_type key{ctx.kind, ctx.task.benchmark,
                                        few_shot,
                                        ctx.engine->config().blockSize,
                                        ctx.seed};
    auto it = ctx.heads->find(key);
    if (it == ctx.heads->end())
        it = ctx.heads->emplace(key, buildHead(ctx, few_shot)).first;
    return it->second;
}

/** The head for @p few_shot examples, then the task's user query. */
PromptBuilder
headWithQuery(const AgentContext &ctx, int few_shot)
{
    PromptBuilder builder = cachedHead(ctx, few_shot);
    const auto user = workload::substream(
        workload::streamId(ctx.seed,
                           "user." + std::string(workload::benchmarkName(
                                         ctx.task.benchmark))),
        ctx.task.taskId);
    builder.add(SegmentKind::User, {user, 0, ctx.task.userTokens});
    return builder;
}

} // namespace

PromptBuilder
AgentContext::promptPrefix() const
{
    return headWithQuery(*this, config.resolveFewShot(profile()));
}

PromptBuilder
AgentContext::evaluatorPrefix() const
{
    return headWithQuery(*this, 0);
}

Segment
AgentContext::toolObservation(std::int64_t count,
                              std::uint64_t index) const
{
    const auto stream = workload::substream(
        workload::substream(workload::streamId(seed, "tool.obs"),
                            task.taskId),
        sim::hashCombine(sim::fnv1a(agentName(kind)), index));
    return Segment{SegmentKind::ToolHistory, {stream, 0, count}};
}

sim::Task<serving::GenResult>
callLlm(AgentContext &ctx, Trace &trace, sim::Rng &rng, Prompt prompt,
        double output_mean, std::string label,
        double expected_park_seconds)
{
    serving::GenRequest req;
    req.prompt = std::move(prompt.chain);
    req.maxNewTokens =
        ctx.profile().sampleOutputTokens(rng, output_mean);
    req.deadlineSeconds = ctx.config.llmDeadlineSeconds;
    req.expectedParkSeconds = expected_park_seconds;
    // All calls of one rollout share a session id so program-aware
    // schedulers (Autellix-style LAS) can track attained service.
    req.sessionId = sim::hashCombine(
        sim::hashCombine(ctx.seed, sim::fnv1a(agentName(ctx.kind))),
        ctx.task.taskId);

    const sim::Tick start = ctx.sim->now();
    telemetry::SpanRef call_span;
    if (ctx.spans != nullptr && ctx.spanParent.valid()) {
        call_span = ctx.spans->child(
            ctx.spanParent, telemetry::SpanKind::LlmCall, label, start);
        req.parentSpan = call_span;
    }
    serving::GenResult gen =
        co_await ctx.engine->generate(std::move(req));
    const sim::Tick end = ctx.sim->now();
    if (call_span.valid())
        ctx.spans->end(call_span, end);

    if (gen.retryable()) {
        NodeFailureError err(
            sim::strfmt("%s: %s", label.c_str(),
                        gen.shed ? "request shed" : "node failure"),
            gen.shed);
        // Price what a from-scratch retry would recompute: everything
        // the episode has attributed so far (the failed call itself
        // charges nothing — it never ran).
        err.investedGpuSeconds = trace.cost().gpuSeconds();
        throw err;
    }
    if (gen.timedOut) {
        throw DeadlineExceededError(sim::strfmt(
            "%s: deadline exceeded after %.3f s", label.c_str(),
            gen.totalSeconds));
    }

    CallTokens tokens = prompt.breakdown;
    tokens.output = gen.output.count;
    trace.addLlmCall(tokens, gen, start, end, label);
    if (ctx.traceSink != nullptr) {
        using telemetry::TraceArg;
        ctx.traceSink->complete(
            telemetry::TracePid::kAgents, ctx.traceTid, label, "llm",
            start, end,
            {TraceArg::integer("prompt_tokens", gen.promptTokens),
             TraceArg::integer("output_tokens", gen.output.count),
             TraceArg::real("queue_s", gen.queueSeconds)});
    }
    co_return gen;
}

sim::Task<tools::ToolResult>
callTool(AgentContext &ctx, Trace &trace, sim::Rng &rng,
         tools::Tool &tool)
{
    const sim::Tick start = ctx.sim->now();
    telemetry::SpanRef call_span;
    if (ctx.spans != nullptr && ctx.spanParent.valid()) {
        call_span =
            ctx.spans->child(ctx.spanParent, telemetry::SpanKind::ToolCall,
                             std::string(tool.name()), start);
    }
    tools::ToolResult result = co_await tool.invoke(rng);
    if (call_span.valid())
        ctx.spans->end(call_span, ctx.sim->now());
    trace.addToolCall(tool.name(), start, ctx.sim->now());
    if (ctx.traceSink != nullptr) {
        ctx.traceSink->complete(telemetry::TracePid::kAgents,
                                ctx.traceTid, tool.name(), "tool", start,
                                ctx.sim->now());
        if (result.failed) {
            ctx.traceSink->instant(telemetry::TracePid::kAgents,
                                   ctx.traceTid, "tool_fault", "tool",
                                   ctx.sim->now());
        }
    }
    co_return result;
}

} // namespace agentsim::agents
