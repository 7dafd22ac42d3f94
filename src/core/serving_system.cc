#include "core/serving_system.hh"

#include <memory>
#include <optional>

#include "agents/accuracy.hh"
#include "core/bottleneck_report.hh"
#include "sim/logging.hh"
#include "telemetry/sim_metrics.hh"
#include "workload/token_stream.hh"
#include "workload/toolset_factory.hh"

namespace agentsim::core
{

namespace
{

/** Shared mutable state the workers report into. */
struct ServeState
{
    ServeResult result;
    sim::Tick firstSubmit = -1;
    sim::Tick lastFinish = 0;
    /** Span collector (nullptr: spans off) and the workflow label
     *  every request of this run aggregates under. */
    telemetry::SpanCollector *spans = nullptr;
    std::string workflowLabel;
    /** Workload drained; periodic observers exit at next wake. */
    bool stopped = false;
    /** Tick at which the driver set `stopped`. */
    sim::Tick stopTick = 0;
    /** Closed loop: the open request's window record, which its
     *  worker fills with its blame and agent result. */
    RequestProbe *window = nullptr;
    /** The run's prompt heads, shared by its episodes. */
    agents::PromptHeadCache heads;
};

/** Open a request's span tree (an invalid ref when spans are off). */
telemetry::SpanRef
beginSpans(ServeState &state, std::uint64_t index, sim::Tick start)
{
    if (state.spans == nullptr)
        return {};
    return state.spans->beginRequest(index, state.workflowLabel, start);
}

/** Close the request's span tree, keeping its blame in the window. */
void
finishSpans(ServeState &state, telemetry::SpanRef root, sim::Tick end)
{
    if (state.spans == nullptr)
        return;
    const telemetry::BlameVector blame =
        state.spans->finishRequest(root, end);
    if (state.window != nullptr)
        state.window->blame = blame;
}

void
noteCompletion(ServeState &state, sim::Tick submit, sim::Tick finish,
               bool solved)
{
    if (state.firstSubmit < 0)
        state.firstSubmit = submit;
    state.lastFinish = std::max(state.lastFinish, finish);
    state.result.e2eSeconds.add(sim::toSeconds(finish - submit));
    ++state.result.completed;
    state.result.solved += solved ? 1 : 0;
}

/** One agent request, Fig 13 worker-style. */
sim::Task<void>
agentWorker(const ServeConfig &config, sim::Simulation &sim,
            serving::LlmEngine &engine, tools::ToolSet &tools,
            const agents::AgentConfig &agent_cfg, std::uint64_t index,
            ServeState &state)
{
    workload::TaskGenerator gen(config.bench, config.seed);
    agents::AgentContext ctx;
    ctx.sim = &sim;
    ctx.engine = &engine;
    ctx.tools = &tools;
    ctx.task = gen.sample(index);
    ctx.config = agent_cfg;
    ctx.kind = config.agent;
    ctx.seed = config.seed;
    ctx.heads = &state.heads;
    if (config.telemetry != nullptr) {
        ctx.traceSink = &config.telemetry->trace;
        ctx.traceTid = index + 1;
        ctx.traceSink->threadName(
            telemetry::TracePid::kAgents, ctx.traceTid,
            sim::strfmt("%s #%llu",
                        std::string(agents::agentName(config.agent))
                            .c_str(),
                        static_cast<unsigned long long>(index)));
    }

    auto agent = agents::makeAgent(config.agent);
    const sim::Tick submit = sim.now();
    const telemetry::SpanRef root = beginSpans(state, index, submit);
    ctx.spans = state.spans;
    ctx.spanParent = root;
    agents::AgentResult result = co_await agent->run(ctx);
    finishSpans(state, root, sim.now());
    state.result.totalCost += result.cost;
    noteCompletion(state, submit, sim.now(), result.solved);
    if (state.window != nullptr)
        state.window->result = std::move(result);
}

/** One ShareGPT chatbot request: a single LLM inference. */
sim::Task<void>
chatWorker(const ServeConfig &config, sim::Simulation &sim,
           serving::LlmEngine &engine, std::uint64_t index,
           ServeState &state)
{
    const workload::ShareGptSampler sampler(config.seed);
    const workload::ChatRequest chat = sampler.sample(index);

    // A short shared system preamble plus a unique conversation: real
    // chatbot traffic has little cross-request overlap (paper: prefix
    // caching only buys ~1.03x there).
    constexpr std::int64_t system_tokens = 40;
    serving::GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize);
    req.prompt.appendStream(workload::streamId(config.seed, "chat.system"),
                            0, system_tokens);
    req.prompt.appendStream(
        workload::substream(
            workload::streamId(config.seed, "chat.convo"), index),
        0, std::max<std::int64_t>(1, chat.promptTokens - system_tokens));
    req.maxNewTokens = chat.outputTokens;
    req.sessionId = sim::hashCombine(config.seed, index);

    const sim::Tick submit = sim.now();
    const telemetry::SpanRef root = beginSpans(state, index, submit);
    req.parentSpan = root;
    serving::GenResult r = co_await engine.generate(std::move(req));
    finishSpans(state, root, sim.now());
    state.result.ttftSeconds.add(r.ttftSeconds);
    state.result.totalCost += r.ledger;
    noteCompletion(state, submit, sim.now(), !r.failed);
}

/** One multi-turn conversation session (keytakeaway #8). */
sim::Task<void>
sessionWorker(const ServeConfig &config, sim::Simulation &sim,
              serving::LlmEngine &engine, std::uint64_t index,
              ServeState &state)
{
    const workload::ChatSessionSampler sessions(config.seed);
    sim::Rng rng(config.seed, "chat.think", index);
    const int turns = sessions.turnCount(index);

    // The conversation context: system preamble, then alternating
    // user messages and assistant replies.
    constexpr std::int64_t system_tokens = 40;
    kv::TokenChain history(engine.config().blockSize);
    history.appendStream(workload::streamId(config.seed, "chat.system"),
                         0, system_tokens);

    const sim::Tick session_start = sim.now();
    const telemetry::SpanRef root =
        beginSpans(state, index, session_start);
    for (int t = 0; t < turns; ++t) {
        if (t > 0) {
            co_await sim::delaySec(sim,
                                   sessions.thinkTimeSeconds(rng));
        }
        const workload::ChatTurn turn = sessions.turn(index, t);
        history.appendStream(
            workload::substream(
                workload::substream(workload::streamId(
                                        config.seed, "chat.user"),
                                    index),
                static_cast<std::uint64_t>(t)),
            0, turn.userTokens);

        serving::GenRequest req;
        req.prompt = history;
        req.maxNewTokens = turn.outputTokens;
        req.sessionId = sim::hashCombine(config.seed, ~index);
        const sim::Tick turn_start = sim.now();
        telemetry::SpanRef turn_span;
        if (state.spans != nullptr) {
            turn_span = state.spans->child(
                root, telemetry::SpanKind::Iteration, "chat.turn",
                turn_start);
            req.parentSpan = turn_span;
        }
        serving::GenResult r =
            co_await engine.generate(std::move(req));
        if (state.spans != nullptr)
            state.spans->end(turn_span, sim.now());
        state.result.turnSeconds.add(
            sim::toSeconds(sim.now() - turn_start));
        state.result.ttftSeconds.add(r.ttftSeconds);
        state.result.totalCost += r.ledger;
        history.append(r.output);
    }
    finishSpans(state, root, sim.now());
    noteCompletion(state, session_start, sim.now(), true);
}

/** Engine counters at the start of a closed-loop request window. */
struct WindowStart
{
    sim::Tick tick = 0;
    double joules = 0.0;
    double kvIntegral = 0.0;
    serving::EngineStats stats;
};

/** Fill @p w with the engine's deltas since @p s. */
void
closeWindow(const serving::LlmEngine &engine, const WindowStart &s,
            sim::Tick end, RequestProbe &w)
{
    const serving::EngineStats &now = engine.stats();
    const auto &kv = engine.kvUsageGauge();
    const double block_bytes = static_cast<double>(engine.blockBytes());
    const double ticks = static_cast<double>(end - s.tick);
    w.e2eSeconds = sim::toSeconds(end - s.tick);
    w.energyWh = (engine.energyJoules(end) - s.joules) / 3600.0;
    w.gpuBusySeconds = now.busySeconds - s.stats.busySeconds;
    w.gpuPrefillSeconds = now.prefillSeconds - s.stats.prefillSeconds;
    w.gpuDecodeSeconds = now.decodeSeconds - s.stats.decodeSeconds;
    w.gpuCoreActiveSeconds =
        now.coreActiveSeconds - s.stats.coreActiveSeconds;
    w.kvAvgBytes =
        ticks > 0 ? (kv.integral(end) - s.kvIntegral) / ticks * block_bytes
                  : 0.0;
    w.kvMaxBytes = kv.maxSinceMark() * block_bytes;
    w.flops = now.totalFlops - s.stats.totalFlops;
}

/** The open-/closed-loop driver. */
sim::Task<void>
driver(const ServeConfig &config, sim::Simulation &sim,
       serving::LlmEngine &engine, tools::ToolSet *tools,
       const agents::AgentConfig &agent_cfg, ServeState &state)
{
    sim::Rng arrivals(config.seed, "arrivals", 0);
    std::vector<sim::Task<void>> workers;
    workers.reserve(static_cast<std::size_t>(config.numRequests));

    for (int i = 0; i < config.numRequests; ++i) {
        if (i > 0 && !config.closedLoop) {
            co_await sim::delaySec(
                sim, arrivals.exponential(1.0 / config.qps));
        }
        const auto index = static_cast<std::uint64_t>(i);
        WindowStart start;
        if (config.closedLoop) {
            state.window = &state.result.requests.emplace_back();
            engine.kvUsageGaugeMut().mark();
            start = {sim.now(), engine.energyJoules(sim.now()),
                     engine.kvUsageGauge().integral(sim.now()),
                     engine.stats()};
        }
        if (config.chatbot && config.multiTurn) {
            workers.push_back(
                sessionWorker(config, sim, engine, index, state));
        } else if (config.chatbot) {
            workers.push_back(
                chatWorker(config, sim, engine, index, state));
        } else {
            workers.push_back(agentWorker(config, sim, engine, *tools,
                                          agent_cfg, index, state));
        }
        if (config.closedLoop) {
            co_await workers.back();
            closeWindow(engine, start, sim.now(), *state.window);
            state.window = nullptr;
        }
    }
    co_await sim::allOf(std::move(workers));
    state.stopped = true;
    state.stopTick = sim.now();
}

/**
 * Read-only time-series sampler for the single-engine path: the
 * serving twin of the cluster's timeseriesSampler. Engine series
 * (tokens, KV blocks, hit rate, preemptions, evictions, batch size,
 * queue depth) come from the engine's own metrics export. Pure
 * observer — consumes no RNG, mutates no sim state; not spawned
 * without a store.
 */
sim::Task<void>
timeseriesSampler(const ServeConfig &config, sim::Simulation &sim,
                  const serving::LlmEngine &engine, ServeState &state)
{
    telemetry::TimeSeriesStore &ts = *config.timeseries;
    for (;;) {
        co_await sim::delaySec(sim, ts.config().periodSeconds);
        const sim::Tick now = sim.now();
        ts.record("requests_completed", now,
                  static_cast<double>(state.result.completed));
        if (config.slo != nullptr) {
            ts.record("slo_burn_e2e", now,
                      config.slo->windowBurnRate(
                          telemetry::SloMetric::E2e, now));
        }
        if (config.telemetry != nullptr) {
            engine.exportMetrics(config.telemetry->registry);
            ts.sample(config.telemetry->registry, now);
        }
        if (state.stopped)
            co_return;
    }
}

} // namespace

ServeResult
runServing(const ServeConfig &config)
{
    AGENTSIM_ASSERT(config.numRequests > 0, "serving without requests");
    AGENTSIM_ASSERT(config.closedLoop || config.qps > 0,
                    "open-loop serving needs positive QPS");
    const std::string agent_name(agents::agentName(config.agent));
    const std::string bench_name(workload::benchmarkName(config.bench));
    if (!config.chatbot &&
        !agents::agentSupports(config.agent, config.bench)) {
        AGENTSIM_FATAL("the paper does not evaluate %s on %s",
                       agent_name.c_str(), bench_name.c_str());
    }

    sim::Simulation sim;
    serving::LlmEngine engine(sim, config.engineConfig);
    if (config.telemetry != nullptr) {
        engine.attachTrace(&config.telemetry->trace);
        config.telemetry->trace.processName(
            telemetry::TracePid::kAgents, "agents");
    }
    if (config.slo != nullptr)
        engine.attachSlo(config.slo);
    engine.attachSpans(config.spans);
    // Flight-recorder tees; attach calls run even with a null
    // recorder so reused sinks detach between sweep points.
    if (config.telemetry != nullptr)
        config.telemetry->trace.attachRecorder(config.recorder);
    if (config.spans != nullptr)
        config.spans->attachRecorder(config.recorder);
    if (config.slo != nullptr)
        config.slo->attachRecorder(config.recorder);
    if (config.recorder != nullptr)
        config.recorder->attachTimeSeries(config.timeseries);
    std::unique_ptr<tools::ToolSet> tools;
    if (!config.chatbot) {
        tools = workload::makeToolSet(config.bench, sim, engine,
                                      config.seed);
    }

    agents::AgentConfig agent_cfg = config.agentConfig;
    agent_cfg.modelQuality =
        agents::modelQuality(config.engineConfig.model.name);

    ServeState state;
    state.spans = config.spans;
    state.workflowLabel =
        !config.chatbot    ? bench_name + "/" + agent_name
        : config.multiTurn ? "ShareGPT/session"
                           : "ShareGPT/chat";
    auto drive = driver(config, sim, engine, tools.get(), agent_cfg,
                        state);
    std::optional<sim::Task<void>> sampler;
    if (config.timeseries != nullptr)
        sampler.emplace(timeseriesSampler(config, sim, engine, state));
    sim.run();
    AGENTSIM_ASSERT(drive.done(), "serving driver did not finish");
    AGENTSIM_ASSERT(state.result.completed == config.numRequests,
                    "serving lost requests: %d of %d",
                    state.result.completed, config.numRequests);
    // One whole-pool walk per run, as runCluster does per node: during
    // the run, allocations check only the blocks they touched.
    engine.checkInvariants();

    ServeResult out = std::move(state.result);
    out.makespanSeconds =
        sim::toSeconds(state.lastFinish -
                       std::max<sim::Tick>(0, state.firstSubmit));
    out.engineStats = engine.stats();
    out.cacheStats = engine.cacheStats();
    out.cacheHitRate = engine.cacheStats().hitRate();
    // Bill the run up to the driver's stop, not to sim.now(): the
    // time-series sampler's last wake can come up to a period later.
    const sim::Tick stop = state.stopTick;
    const double ticks = static_cast<double>(stop);
    const double block_bytes = static_cast<double>(engine.blockBytes());
    out.kvAvgBytes =
        ticks > 0 ? engine.kvUsageGauge().integral(stop) / ticks *
                        block_bytes
                  : 0.0;
    out.kvMaxBytes = engine.kvUsageGauge().max() * block_bytes;
    out.energyWh = engine.energyJoules(stop) / 3600.0;
    out.simWallSeconds = sim.wallSeconds();
    out.simEventsProcessed =
        static_cast<double>(sim.processedEvents());
    out.simEventsPerSecond = sim.eventsPerSecond();

    if (config.telemetry != nullptr) {
        const sim::Tick end = sim.now();
        telemetry::SessionTelemetry &t = *config.telemetry;
        engine.exportMetrics(t.registry);
        telemetry::exportSimMetrics(t.registry, sim);
        if (config.slo != nullptr)
            config.slo->exportMetrics(t.registry, end);
        if (!out.e2eSeconds.empty()) {
            auto &h = t.registry.histogram(
                "agentsim_request_e2e_seconds",
                "End-to-end request latency",
                0.0, std::max(1.0, out.e2eSeconds.max() * 1.001), 20);
            for (double v : out.e2eSeconds.values())
                h.observe(v);
        }
        if (!out.ttftSeconds.empty()) {
            auto &h = t.registry.histogram(
                "agentsim_ttft_seconds", "Time to first token",
                0.0, std::max(1.0, out.ttftSeconds.max() * 1.001), 20);
            for (double v : out.ttftSeconds.values())
                h.observe(v);
        }
        if (config.spans != nullptr && !config.spans->empty()) {
            exportBlameMetrics(*config.spans, t.registry);
            emitSpanExemplars(*config.spans, t.trace);
        }
        if (config.recorder != nullptr)
            config.recorder->exportMetrics(t.registry);
        t.trace.exportMetrics(t.registry);
    }
    return out;
}

double
ServeResult::meanLlmCalls() const
{
    return meanOver([](const RequestProbe &r) { return r.result.llmCalls; });
}

double
ServeResult::meanToolCalls() const
{
    return meanOver([](const RequestProbe &r) { return r.result.toolCalls; });
}

double
ServeResult::meanGpuIdleFraction() const
{
    return meanOver([](const RequestProbe &r) {
        return r.e2eSeconds > 0 ? 1.0 - r.gpuBusySeconds / r.e2eSeconds
                                : 0.0;
    });
}

} // namespace agentsim::core
