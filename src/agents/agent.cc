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

/** Fixed instruction tokens for (agent, benchmark). */
std::vector<kv::TokenId>
instructionTokens(const AgentContext &ctx)
{
    // Shared across every task of (agent, benchmark): the serving-level
    // cross-request prefix hits of Fig 15 come from here.
    const auto stream = workload::streamId(
        ctx.seed, sim::strfmt("instr.%s.%s",
                              std::string(agentName(ctx.kind)).c_str(),
                              std::string(workload::benchmarkName(
                                              ctx.task.benchmark))
                                  .c_str()));
    return workload::makeTokens(stream, ctx.profile().instructionTokens);
}

/** Fixed few-shot tokens (resolved example count). */
std::vector<kv::TokenId>
fewShotTokens(const AgentContext &ctx)
{
    const auto stream = workload::streamId(
        ctx.seed, sim::strfmt("fewshot.%s.%s",
                              std::string(agentName(ctx.kind)).c_str(),
                              std::string(workload::benchmarkName(
                                              ctx.task.benchmark))
                                  .c_str()));
    const int examples = ctx.config.resolveFewShot(ctx.profile());
    return workload::makeTokens(stream,
                                examples *
                                    ctx.profile().fewShotTokensPerExample);
}

/** Per-task user-query tokens. */
std::vector<kv::TokenId>
userTokens(const AgentContext &ctx)
{
    const auto stream = workload::substream(
        workload::streamId(
            ctx.seed, sim::strfmt("user.%s",
                                  std::string(workload::benchmarkName(
                                                  ctx.task.benchmark))
                                      .c_str())),
        ctx.task.taskId);
    return workload::makeTokens(stream, ctx.task.userTokens);
}

} // namespace

PromptBuilder
AgentContext::promptPrefix() const
{
    PromptBuilder builder(engine->config().blockSize);
    builder.add(SegmentKind::Instruction, instructionTokens(*this));
    builder.add(SegmentKind::FewShot, fewShotTokens(*this));
    builder.add(SegmentKind::User, userTokens(*this));
    return builder;
}

PromptBuilder
AgentContext::evaluatorPrefix() const
{
    PromptBuilder builder(engine->config().blockSize);
    builder.add(SegmentKind::Instruction, instructionTokens(*this));
    builder.add(SegmentKind::User, userTokens(*this));
    return builder;
}

std::vector<kv::TokenId>
AgentContext::toolObservationTokens(std::int64_t count,
                                    std::uint64_t index) const
{
    const auto stream = workload::substream(
        workload::substream(workload::streamId(seed, "tool.obs"),
                            task.taskId),
        sim::hashCombine(sim::fnv1a(agentName(kind)), index));
    return workload::makeTokens(stream, count);
}

std::vector<kv::TokenId>
AgentContext::reflectionTokens(std::int64_t count,
                               std::uint64_t index) const
{
    const auto stream = workload::substream(
        workload::substream(workload::streamId(seed, "reflection"),
                            task.taskId),
        sim::hashCombine(sim::fnv1a(agentName(kind)), index));
    return workload::makeTokens(stream, count);
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
    tokens.output = static_cast<std::int64_t>(gen.tokens.size());
    trace.addLlmCall(tokens, gen, start, end, label);
    if (ctx.traceSink != nullptr) {
        using telemetry::TraceArg;
        ctx.traceSink->complete(
            telemetry::TracePid::kAgents, ctx.traceTid, label, "llm",
            start, end,
            {TraceArg::integer("prompt_tokens", gen.promptTokens),
             TraceArg::integer("output_tokens",
                               static_cast<std::int64_t>(
                                   gen.tokens.size())),
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
                                ctx.traceTid, std::string(tool.name()),
                                "tool", start, ctx.sim->now());
        if (result.failed) {
            ctx.traceSink->instant(telemetry::TracePid::kAgents,
                                   ctx.traceTid, "tool_fault", "tool",
                                   ctx.sim->now());
        }
    }
    co_return result;
}

} // namespace agentsim::agents
