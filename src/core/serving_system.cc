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
};

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
    telemetry::SpanRef root;
    if (state.spans != nullptr) {
        root = state.spans->beginRequest(index, state.workflowLabel,
                                         submit);
        ctx.spans = state.spans;
        ctx.spanParent = root;
    }
    agents::AgentResult result = co_await agent->run(ctx);
    if (state.spans != nullptr)
        state.spans->finishRequest(root, sim.now());
    state.result.totalCost += result.cost;
    noteCompletion(state, submit, sim.now(), result.solved);
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
    req.prompt = kv::TokenChain(
        engine.config().blockSize,
        workload::makeTokens(
            workload::streamId(config.seed, "chat.system"),
            system_tokens));
    req.prompt.append(workload::makeTokens(
        workload::substream(workload::streamId(config.seed,
                                               "chat.convo"),
                            index),
        std::max<std::int64_t>(1, chat.promptTokens - system_tokens)));
    req.maxNewTokens = chat.outputTokens;
    req.sessionId = sim::hashCombine(config.seed, index);

    const sim::Tick submit = sim.now();
    telemetry::SpanRef root;
    if (state.spans != nullptr) {
        root = state.spans->beginRequest(index, state.workflowLabel,
                                         submit);
        req.parentSpan = root;
    }
    serving::GenResult r = co_await engine.generate(std::move(req));
    if (state.spans != nullptr)
        state.spans->finishRequest(root, sim.now());
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
    kv::TokenChain history(
        engine.config().blockSize,
        workload::makeTokens(
            workload::streamId(config.seed, "chat.system"),
            system_tokens));

    const sim::Tick session_start = sim.now();
    telemetry::SpanRef root;
    if (state.spans != nullptr) {
        root = state.spans->beginRequest(index, state.workflowLabel,
                                         session_start);
    }
    for (int t = 0; t < turns; ++t) {
        if (t > 0) {
            co_await sim::delaySec(sim,
                                   sessions.thinkTimeSeconds(rng));
        }
        const workload::ChatTurn turn = sessions.turn(index, t);
        history.append(workload::makeTokens(
            workload::substream(
                workload::substream(workload::streamId(
                                        config.seed, "chat.user"),
                                    index),
                static_cast<std::uint64_t>(t)),
            turn.userTokens));

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
        history.append(r.tokens);
    }
    if (state.spans != nullptr)
        state.spans->finishRequest(root, sim.now());
    noteCompletion(state, session_start, sim.now(), true);
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
        if (config.closedLoop)
            co_await workers.back();
    }
    co_await sim::allOf(std::move(workers));
    state.stopped = true;
}

/**
 * Read-only time-series sampler for the single-engine path: the
 * serving twin of the cluster's timeseriesSampler. Pure observer —
 * consumes no RNG, mutates nothing; not spawned without a store.
 */
sim::Task<void>
timeseriesSampler(const ServeConfig &config, sim::Simulation &sim,
                  serving::LlmEngine &engine, ServeState &state)
{
    telemetry::TimeSeriesStore &ts = *config.timeseries;
    for (;;) {
        co_await sim::delaySec(sim, config.timeseriesPeriodSeconds);
        const sim::Tick now = sim.now();
        ts.record("engine_queue_depth", now,
                  static_cast<double>(engine.queueDepth()));
        ts.record("engine_running", now,
                  static_cast<double>(engine.runningCount()));
        const auto &blocks = engine.blockManager();
        if (blocks.totalBlocks() > 0) {
            ts.record("engine_kv_util", now,
                      static_cast<double>(blocks.blocksInUse()) /
                          static_cast<double>(blocks.totalBlocks()));
        }
        ts.record("requests_completed", now,
                  static_cast<double>(state.result.completed));
        if (config.slo != nullptr) {
            ts.record("slo_burn_e2e", now,
                      config.slo->windowBurnRate(
                          telemetry::SloMetric::E2e, now));
        }
        if (config.telemetry != nullptr)
            ts.sample(config.telemetry->registry, now);
        if (state.stopped)
            co_return;
    }
}

} // namespace

ServeResult
runServing(const ServeConfig &config)
{
    AGENTSIM_ASSERT(config.numRequests > 0, "serving without requests");
    AGENTSIM_ASSERT(config.chatbot || config.closedLoop ||
                        config.qps > 0,
                    "open-loop serving needs positive QPS");
    if (!config.chatbot &&
        !agents::agentSupports(config.agent, config.bench)) {
        AGENTSIM_FATAL("unsupported agent/benchmark pair in serving");
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
    telemetry::SpanCollector *spans =
        config.spans != nullptr
            ? config.spans
            : (config.telemetry != nullptr ? &config.telemetry->spans
                                           : nullptr);
    engine.attachSpans(spans);
    // Flight-recorder tees; attach calls run even with a null
    // recorder so reused sinks detach between sweep points.
    if (config.telemetry != nullptr)
        config.telemetry->trace.attachRecorder(config.recorder);
    if (spans != nullptr)
        spans->attachRecorder(config.recorder);
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
    state.spans = spans;
    if (config.chatbot) {
        state.workflowLabel =
            config.multiTurn ? "ShareGPT/session" : "ShareGPT/chat";
    } else {
        state.workflowLabel =
            std::string(workload::benchmarkName(config.bench)) + "/" +
            std::string(agents::agentName(config.agent));
    }
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

    ServeResult out = std::move(state.result);
    out.makespanSeconds =
        sim::toSeconds(state.lastFinish -
                       std::max<sim::Tick>(0, state.firstSubmit));
    out.engineStats = engine.stats();
    out.cacheStats = engine.cacheStats();
    out.cacheHitRate = engine.cacheStats().hitRate();
    const sim::Tick end = sim.now();
    const double ticks = static_cast<double>(end);
    const double block_bytes = static_cast<double>(engine.blockBytes());
    out.kvAvgBytes =
        ticks > 0 ? engine.kvUsageGauge().integral(end) / ticks *
                        block_bytes
                  : 0.0;
    out.kvMaxBytes = engine.kvUsageGauge().max() * block_bytes;
    out.energyWh = engine.energyJoules(end) / 3600.0;
    out.simWallSeconds = sim.wallSeconds();
    out.simEventsProcessed =
        static_cast<double>(sim.processedEvents());
    out.simEventsPerSecond = sim.eventsPerSecond();

    if (config.telemetry != nullptr) {
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
        if (spans != nullptr && !spans->empty()) {
            exportBlameMetrics(*spans, t.registry, end);
            emitSpanExemplars(*spans, t.trace);
        }
        if (config.recorder != nullptr)
            config.recorder->exportMetrics(t.registry);
        t.registry
            .gauge("agentsim_trace_dropped_events",
                   "Trace events dropped by the sink's capacity cap")
            .set(end, static_cast<double>(t.trace.droppedEvents()));
        t.registry.snapshot(end);
        t.engineSamples = engine.sampler().samples();
    }
    return out;
}

} // namespace agentsim::core
