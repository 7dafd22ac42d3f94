#include "core/cluster.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "agents/accuracy.hh"
#include "core/bottleneck_report.hh"
#include "sim/logging.hh"
#include "workload/token_stream.hh"
#include "workload/toolset_factory.hh"

namespace agentsim::core
{

double
ArrivalPattern::rateAt(double t_seconds, double constant_qps) const
{
    if (kind == Kind::Constant)
        return constant_qps;
    const double cycles = t_seconds / periodSeconds;
    const double phase = cycles - std::floor(cycles);
    // Raised cosine: trough at phase 0, crest at phase 0.5.
    double rate = baseQps + (peakQps - baseQps) * 0.5 *
                                (1.0 - std::cos(2.0 * std::numbers::pi *
                                                phase));
    if (burstDurationSeconds > 0.0) {
        const double into =
            (phase - burstStartFraction) * periodSeconds;
        if (into >= 0.0 && into < burstDurationSeconds)
            rate *= burstMultiplier;
    }
    return rate;
}

double
ArrivalPattern::maxQps(double constant_qps) const
{
    if (kind == Kind::Constant)
        return constant_qps;
    return peakQps *
           (burstDurationSeconds > 0.0 ? burstMultiplier : 1.0);
}

std::string_view
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::RoundRobin:
        return "round-robin";
      case RoutePolicy::LeastLoaded:
        return "least-loaded";
      case RoutePolicy::CacheAffinity:
        return "cache-affinity";
    }
    AGENTSIM_PANIC("unknown routing policy");
}

namespace
{

/** One serving node: an engine plus its per-benchmark tool belts. */
struct Node
{
    std::unique_ptr<serving::LlmEngine> engine;
    std::vector<std::unique_ptr<tools::ToolSet>> toolsByBenchmark;
    int assigned = 0;
    /** Part of the paid-for fleet (active, warming or chaos-downed —
     *  as opposed to parked standby capacity). */
    bool provisioned = false;
    sim::Tick provisionedSince = 0;
    /** Settled node-seconds from earlier provisioned episodes. */
    double provisionedSeconds = 0.0;

    tools::ToolSet &
    toolsFor(workload::Benchmark bench)
    {
        return *toolsByBenchmark[static_cast<std::size_t>(bench)];
    }

    /** In-flight load proxy: running batch + waiting queue. */
    std::size_t
    load() const
    {
        return engine->runningCount() + engine->queueDepth();
    }
};

struct ClusterState
{
    ClusterResult result;
    sim::Tick firstSubmit = -1;
    sim::Tick lastFinish = 0;
    /** Workload drained; periodic coroutines exit at next wake. */
    bool stopped = false;

    /** Flight recorder tee for deadline-miss spike detection (null
     *  unless a recorder is attached). */
    telemetry::FlightRecorder *recorder = nullptr;

    /** Episode checkpoint store (null unless checkpointing is
     *  enabled — workers then journal and resume through it). */
    serving::CheckpointStore *checkpoints = nullptr;

    /** Elasticity wiring (null unless the autoscaler is enabled). */
    AutoscalerController *autoscaler = nullptr;
    AdmissionController *admission = nullptr;
    /** Nodes currently serving traffic (not warming, not standby). */
    int activeNodes = 0;
    /** Scaled-out nodes still paying their warm-up. */
    int warmingNodes = 0;
    /** One scale-in (drain + migrate) at a time. */
    bool scaleInInFlight = false;
    /** Keeps in-flight scale-out/scale-in coroutine frames alive. */
    std::vector<sim::Task<void>> scaleOps;
};

/** Stable identity of a workload component (for affinity hashing). */
std::uint64_t
workloadKey(const WorkloadSpec &spec)
{
    if (spec.chatbot)
        return sim::fnv1a("chatbot");
    return sim::hashCombine(
        sim::fnv1a(agents::agentName(spec.agent)),
        sim::fnv1a(workload::benchmarkName(spec.bench)));
}

/**
 * Routing state shared by the driver and retrying workers. Nodes that
 * are not accepting (crashed or draining) are never picked, and nodes
 * whose circuit breaker is Open are skipped while accepting peers
 * exist; when every accepting node is breaker-denied the router fails
 * open rather than stalling the client. pick() returns -1 only when
 * the whole cluster is down and the caller should back off and
 * re-probe.
 */
struct Router
{
    RoutePolicy policy;
    std::vector<Node> &nodes;
    HealthRegistry &health;
    int rrNext = 0;

    bool
    accepting(int i) const
    {
        return nodes[static_cast<std::size_t>(i)].engine->accepting();
    }

    /** Accepting, and (when @p use_breakers) breaker-admitted. */
    bool
    available(int i, sim::Tick now, bool use_breakers)
    {
        if (!accepting(i))
            return false;
        return !use_breakers ||
               health.allows(static_cast<std::size_t>(i), now);
    }

    /** Least-loaded available node, or -1 if none qualifies. */
    int
    leastLoadedAvailable(sim::Tick now, bool use_breakers)
    {
        const int n = static_cast<int>(nodes.size());
        int best = -1;
        for (int i = 0; i < n; ++i) {
            if (!available(i, now, use_breakers))
                continue;
            if (best < 0 ||
                nodes[static_cast<std::size_t>(i)].load() <
                    nodes[static_cast<std::size_t>(best)].load()) {
                best = i;
            }
        }
        return best;
    }

    int
    pickFiltered(const WorkloadSpec &spec, sim::Tick now,
                 bool use_breakers)
    {
        const int n = static_cast<int>(nodes.size());
        switch (policy) {
          case RoutePolicy::RoundRobin: {
              for (int step = 0; step < n; ++step) {
                  const int candidate = rrNext;
                  rrNext = (rrNext + 1) % n;
                  if (available(candidate, now, use_breakers))
                      return candidate;
              }
              return -1;
          }
          case RoutePolicy::LeastLoaded:
            return leastLoadedAvailable(now, use_breakers);
          case RoutePolicy::CacheAffinity: {
              // Agent-aware: chatbot traffic has near-zero
              // cross-request prefix reuse, so it simply
              // load-balances; agent requests go to their workflow's
              // home node unless it is down or clearly overloaded
              // relative to the cluster minimum.
              const int least = leastLoadedAvailable(now, use_breakers);
              if (least < 0 || spec.chatbot)
                  return least;
              const int home = static_cast<int>(
                  workloadKey(spec) % static_cast<std::uint64_t>(n));
              if (!available(home, now, use_breakers))
                  return least;
              const std::size_t min_load =
                  nodes[static_cast<std::size_t>(least)].load();
              if (nodes[static_cast<std::size_t>(home)].load() >
                  min_load + 6) {
                  return least;
              }
              return home;
          }
        }
        AGENTSIM_PANIC("unknown routing policy");
    }

    int
    pick(const WorkloadSpec &spec, sim::Tick now)
    {
        int target = pickFiltered(spec, now, /*use_breakers=*/true);
        if (target >= 0)
            return target;
        // Every accepting node is breaker-denied (or none accepts):
        // fail open so a cluster-wide brown patch degrades to plain
        // availability routing instead of livelock.
        target = pickFiltered(spec, now, /*use_breakers=*/false);
        if (target >= 0)
            health.noteFailOpenPick();
        return target;
    }

    /**
     * Target for a live migration off @p source: the least-loaded
     * accepting peer, preferring breaker-admitted ones. -1 when no
     * other node can take the request.
     */
    int
    pickForImport(std::size_t source, sim::Tick now)
    {
        int best = -1;
        for (int pass = 0; pass < 2 && best < 0; ++pass) {
            const bool use_breakers = pass == 0;
            const int n = static_cast<int>(nodes.size());
            for (int i = 0; i < n; ++i) {
                if (i == static_cast<int>(source) ||
                    !available(i, now, use_breakers)) {
                    continue;
                }
                if (best < 0 ||
                    nodes[static_cast<std::size_t>(i)].load() <
                        nodes[static_cast<std::size_t>(best)].load()) {
                    best = i;
                }
            }
        }
        return best;
    }
};

void
noteCompletion(ClusterState &state, sim::Tick submit, sim::Tick finish,
               std::size_t workload_index)
{
    if (state.firstSubmit < 0)
        state.firstSubmit = submit;
    state.lastFinish = std::max(state.lastFinish, finish);
    const double seconds = sim::toSeconds(finish - submit);
    state.result.e2eSeconds.add(seconds);
    state.result.perWorkloadSeconds[workload_index].add(seconds);
    ++state.result.completed;
}

void
noteFailure(ClusterState &state, sim::Tick submit, sim::Tick finish,
            bool timed_out)
{
    if (state.firstSubmit < 0)
        state.firstSubmit = submit;
    state.lastFinish = std::max(state.lastFinish, finish);
    ++state.result.failed;
    if (timed_out) {
        ++state.result.timedOut;
        if (state.recorder != nullptr)
            state.recorder->noteDeadlineMiss(finish);
    }
}

/**
 * Shared retry bookkeeping: route (re-probing while the whole cluster
 * is down), count failovers, emit the failover trace instant.
 * @return the chosen node index.
 */
sim::Task<int>
routeWithFailover(const ClusterConfig &config, sim::Simulation &sim,
                  Router &router, const WorkloadSpec &spec,
                  std::uint64_t index, int prev_node,
                  ClusterState &state)
{
    int target;
    while ((target = router.pick(spec, sim.now())) < 0) {
        // Every node is down; poll until a restart brings one back.
        co_await sim::delaySec(sim, config.retry.allDownPollSeconds);
    }
    if (prev_node >= 0 && target != prev_node) {
        ++state.result.failovers;
        // Attribute why the previous node was avoided: gone entirely,
        // breaker-denied, or merely out-loaded by a peer. state() is
        // a pure query — unlike allows() it cannot consume a
        // half-open probe slot.
        if (!router.accepting(prev_node)) {
            ++state.result.failoversOffline;
        } else if (router.health.state(static_cast<std::size_t>(
                       prev_node)) == BreakerState::Open) {
            ++state.result.failoversBreaker;
        } else {
            ++state.result.failoversRebalance;
        }
        if (config.traceSink != nullptr) {
            config.traceSink->instant(telemetry::TracePid::kAgents,
                                      index, "failover", "cluster",
                                      sim.now());
        }
    }
    co_return target;
}

/** Jittered exponential backoff before retry @p attempt (1-based). */
double
retrySleepSeconds(const RetryPolicy &retry, int attempt, sim::Rng &rng)
{
    return retry.backoffSeconds(attempt) *
           (1.0 + rng.uniform(0.0, retry.jitter));
}

/**
 * Predictive admission gate for one routed attempt: reject-fast when
 * the projected queue delay on the chosen node would eat the
 * request's deadline budget. A reject is retryable (the client backs
 * off and re-routes) and is *not* reported to the node's breaker —
 * the node is overloaded, not broken. @return true to dispatch.
 */
bool
admitAttempt(const ClusterConfig &config, sim::Simulation &sim,
             const Node &node, std::uint64_t index,
             double budget_seconds, ClusterState &state)
{
    if (state.admission == nullptr)
        return true;
    if (state.admission->admit(node.engine->queueDepth(),
                               std::max(1, state.activeNodes),
                               budget_seconds, sim.now())) {
        return true;
    }
    ++state.result.admissionRejects;
    if (config.traceSink != nullptr) {
        config.traceSink->instant(telemetry::TracePid::kResilience,
                                  index, "admission_reject",
                                  "autoscale", sim.now());
    }
    return false;
}

sim::Task<void>
clusterAgentWorker(const ClusterConfig &config, sim::Simulation &sim,
                   std::vector<Node> &nodes, Router &router,
                   BrownoutController *brownout,
                   const WorkloadSpec &spec,
                   std::size_t workload_index, std::uint64_t index,
                   ClusterState &state)
{
    workload::TaskGenerator gen(spec.bench, config.seed);
    sim::Rng backoff(config.seed, "cluster.retry", index);
    const sim::Tick submit = sim.now();
    telemetry::SpanRef root;
    if (config.spans != nullptr) {
        root = config.spans->beginRequest(
            index,
            std::string(workload::benchmarkName(spec.bench)) + "/" +
                std::string(agents::agentName(spec.agent)),
            submit);
    }
    telemetry::SpanRef prev_attempt;
    int prev_node = -1;
    int attempt = 0;
    /** Checkpointed GPU-seconds already counted as recovered for this
     *  episode (a later crash only credits the delta). */
    double recovered_credit = 0.0;
    for (;;) {
        // A retry that finds a journaled snapshot is a resume, not a
        // from-scratch attempt; blame tooling sees the difference.
        const bool resuming = state.checkpoints != nullptr &&
                              attempt > 0 &&
                              state.checkpoints->find(index) != nullptr;
        telemetry::SpanRef attempt_span;
        if (config.spans != nullptr) {
            attempt_span = config.spans->child(
                root, telemetry::SpanKind::Attempt,
                resuming ? "resume" : "attempt", sim.now());
            config.spans->link(attempt_span, prev_attempt);
        }
        const int target = co_await routeWithFailover(
            config, sim, router, spec, index, prev_node, state);
        prev_node = target;
        ++attempt;
        Node &node = nodes[static_cast<std::size_t>(target)];

        // Agent rollouts have no end-to-end deadline; their admission
        // budget is the per-LLM-call deadline (the first call would
        // wait through the same queue).
        if (!admitAttempt(config, sim, node, index,
                          spec.agentConfig.llmDeadlineSeconds, state)) {
            if (config.spans != nullptr)
                config.spans->end(attempt_span, sim.now());
            if (attempt >= config.retry.maxAttempts) {
                if (state.checkpoints != nullptr)
                    state.checkpoints->erase(index);
                if (config.spans != nullptr)
                    config.spans->finishRequest(root, sim.now(), true);
                noteFailure(state, submit, sim.now(), false);
                co_return;
            }
            prev_attempt = attempt_span;
            ++state.result.retries;
            ++state.result.retriesAdmission;
            telemetry::SpanRef sleep_span;
            if (config.spans != nullptr) {
                sleep_span = config.spans->child(
                    root, telemetry::SpanKind::Backoff, "backoff",
                    sim.now());
            }
            co_await sim::delaySec(
                sim,
                retrySleepSeconds(config.retry, attempt, backoff));
            if (config.spans != nullptr)
                config.spans->end(sleep_span, sim.now());
            continue;
        }
        ++node.assigned;

        agents::AgentContext ctx;
        ctx.sim = &sim;
        ctx.engine = node.engine.get();
        ctx.tools = &node.toolsFor(spec.bench);
        ctx.task = gen.sample(index);
        ctx.config = spec.agentConfig;
        // Under brownout the dispatcher trims test-time-scaling width
        // and may downgrade deadline-less rollouts to a cheaper
        // workflow — degraded service instead of shed service.
        agents::AgentKind kind = spec.agent;
        if (brownout != nullptr)
            brownout->apply(kind, ctx.config, spec.bench);
        ctx.config.modelQuality =
            agents::modelQuality(config.engineConfig.model.name);
        ctx.kind = kind;
        ctx.seed = config.seed;
        ctx.traceSink = config.traceSink;
        ctx.traceTid = index;
        if (config.spans != nullptr) {
            ctx.spans = config.spans;
            ctx.spanParent = attempt_span;
        }

        // Episode recovery: hand the workflow the store and, on a
        // retry, the last journaled snapshot — unless brownout has
        // since downgraded the workflow kind, in which case the
        // journal no longer matches the code that would replay it.
        if (state.checkpoints != nullptr) {
            ctx.checkpoints = state.checkpoints;
            ctx.episodeKey = index;
            const serving::EpisodeCheckpoint *ckpt =
                state.checkpoints->find(index);
            if (ckpt != nullptr &&
                ckpt->kindTag != static_cast<int>(kind)) {
                state.checkpoints->erase(index);
                ckpt = nullptr;
            }
            ctx.resumeFrom = ckpt;
        }
        if (ctx.resumeFrom != nullptr) {
            auto &rec = state.result.recovery;
            ++rec.resumes;
            // Warm the conversation-prefix KV on the landing node —
            // or recompute it cold during the first prefill,
            // whichever the priced estimate says is cheaper
            // (migration-style wire vs PerfModel prefill).
            const kv::TokenChain &chain = ctx.resumeFrom->chain;
            bool restored = false;
            if (!chain.empty()) {
                serving::LlmEngine &eng = *node.engine;
                const double wire_seconds =
                    static_cast<double>(chain.size()) *
                    agents::kvBytesPerToken(eng) /
                    config.migrationBandwidth;
                const double recompute_seconds =
                    eng.perfModel().prefillSeconds(chain.size());
                if (wire_seconds < recompute_seconds) {
                    const std::int64_t blocks =
                        eng.preloadPrefix(chain);
                    if (blocks >= 0) {
                        // Pay wire time only for the blocks actually
                        // populated (the rest were cache-resident).
                        const double actual =
                            static_cast<double>(blocks) *
                            static_cast<double>(eng.blockBytes()) /
                            config.migrationBandwidth;
                        telemetry::SpanRef restore_span;
                        if (config.spans != nullptr) {
                            restore_span = config.spans->child(
                                attempt_span,
                                telemetry::SpanKind::KvRestore,
                                "checkpoint.restore", sim.now());
                        }
                        if (actual > 0.0)
                            co_await sim::delaySec(sim, actual);
                        if (config.spans != nullptr) {
                            config.spans->end(restore_span,
                                              sim.now());
                        }
                        rec.restoreSeconds += actual;
                        ++rec.kvRestores;
                        restored = true;
                    }
                }
            }
            if (!restored)
                ++rec.coldFallbacks;
            if (config.traceSink != nullptr) {
                config.traceSink->instant(telemetry::TracePid::kAgents,
                                          index, "resume", "cluster",
                                          sim.now());
            }
        }

        auto agent = agents::makeAgent(kind);
        bool retry_pending = false;
        try {
            agents::AgentResult result = co_await agent->run(ctx);
            if (config.spans != nullptr) {
                config.spans->end(attempt_span, sim.now());
                config.spans->finishRequest(root, sim.now());
            }
            if (state.autoscaler != nullptr && result.llmCalls > 0) {
                state.autoscaler->recordQueueDelay(
                    result.queueSeconds /
                    static_cast<double>(result.llmCalls));
            }
            if (state.admission != nullptr)
                state.admission->recordCompletion(sim.now());
            router.health.reportSuccess(
                static_cast<std::size_t>(target), sim.now());
            state.result.episodeCost += result.cost;
            if (state.checkpoints != nullptr)
                state.checkpoints->erase(index);
            noteCompletion(state, submit, sim.now(), workload_index);
            co_return;
        } catch (const agents::DeadlineExceededError &) {
            // The SLO is already blown; a retry cannot un-miss it.
            if (config.spans != nullptr) {
                config.spans->end(attempt_span, sim.now());
                config.spans->finishRequest(root, sim.now(), true);
            }
            router.health.reportFailure(
                static_cast<std::size_t>(target), sim.now());
            if (state.checkpoints != nullptr)
                state.checkpoints->erase(index);
            noteFailure(state, submit, sim.now(), true);
            co_return;
        } catch (const agents::NodeFailureError &e) {
            if (config.spans != nullptr)
                config.spans->end(attempt_span, sim.now());
            router.health.reportFailure(
                static_cast<std::size_t>(target), sim.now());
            if (attempt >= config.retry.maxAttempts) {
                if (state.checkpoints != nullptr)
                    state.checkpoints->erase(index);
                if (config.spans != nullptr)
                    config.spans->finishRequest(root, sim.now(), true);
                noteFailure(state, submit, sim.now(), false);
                co_return;
            }
            // Recovery accounting for the upcoming retry: work since
            // the last snapshot is recomputed (lost); the snapshotted
            // share survives (recovered — credited once per episode,
            // later crashes only add the delta). With checkpointing
            // off this degrades to lost = everything invested.
            auto &rec = state.result.recovery;
            const serving::EpisodeCheckpoint *ckpt =
                state.checkpoints != nullptr
                    ? state.checkpoints->find(index)
                    : nullptr;
            const double recoverable =
                ckpt != nullptr ? ckpt->gpuSeconds : 0.0;
            rec.lostGpuSeconds +=
                std::max(0.0, e.investedGpuSeconds - recoverable);
            const double newly =
                std::max(0.0, recoverable - recovered_credit);
            rec.recoveredGpuSeconds += newly;
            if (e.shed)
                rec.recoveredShedGpuSeconds += newly;
            else
                rec.recoveredCrashGpuSeconds += newly;
            recovered_credit = recoverable;
            if (e.shed)
                ++state.result.retriesShed;
            else
                ++state.result.retriesCrash;
            retry_pending = true; // co_await is illegal in a handler
        }
        if (retry_pending) {
            prev_attempt = attempt_span;
            ++state.result.retries;
            telemetry::SpanRef sleep_span;
            if (config.spans != nullptr) {
                sleep_span = config.spans->child(
                    root, telemetry::SpanKind::Backoff, "backoff",
                    sim.now());
            }
            co_await sim::delaySec(
                sim,
                retrySleepSeconds(config.retry, attempt, backoff));
            if (config.spans != nullptr)
                config.spans->end(sleep_span, sim.now());
            // Without a checkpoint the rollout restarts from scratch
            // on the next pick (cold workflow prefix on a different
            // node); with one, the next attempt resumes at the last
            // journaled iteration.
        }
    }
}

sim::Task<void>
clusterChatWorker(const ClusterConfig &config, sim::Simulation &sim,
                  std::vector<Node> &nodes, Router &router,
                  const WorkloadSpec &spec,
                  std::size_t workload_index, std::uint64_t index,
                  ClusterState &state)
{
    const workload::ShareGptSampler sampler(config.seed);
    const workload::ChatRequest chat = sampler.sample(index);
    constexpr std::int64_t system_tokens = 40;
    kv::TokenChain prompt(
        config.engineConfig.blockSize,
        workload::makeTokens(
            workload::streamId(config.seed, "chat.system"),
            system_tokens));
    prompt.append(workload::makeTokens(
        workload::substream(workload::streamId(config.seed,
                                               "chat.convo"),
                            index),
        std::max<std::int64_t>(1, chat.promptTokens - system_tokens)));

    sim::Rng backoff(config.seed, "cluster.retry", index);
    const sim::Tick submit = sim.now();
    telemetry::SpanRef root;
    if (config.spans != nullptr)
        root = config.spans->beginRequest(index, "ShareGPT/chat",
                                          submit);
    telemetry::SpanRef prev_attempt;
    int prev_node = -1;
    int attempt = 0;
    for (;;) {
        telemetry::SpanRef attempt_span;
        if (config.spans != nullptr) {
            attempt_span = config.spans->child(
                root, telemetry::SpanKind::Attempt, "attempt",
                sim.now());
            config.spans->link(attempt_span, prev_attempt);
        }
        const int target = co_await routeWithFailover(
            config, sim, router, spec, index, prev_node, state);
        prev_node = target;
        ++attempt;
        Node &node = nodes[static_cast<std::size_t>(target)];

        const double budget =
            config.chatDeadlineSeconds > 0.0
                ? config.chatDeadlineSeconds -
                      sim::toSeconds(sim.now() - submit)
                : 0.0;
        bool admitted =
            admitAttempt(config, sim, node, index, budget, state);
        serving::GenResult gen;
        if (admitted) {
            ++node.assigned;

            serving::GenRequest req;
            req.prompt = prompt;
            req.maxNewTokens = chat.outputTokens;
            req.sessionId = sim::hashCombine(config.seed, index);
            req.deadlineSeconds = config.chatDeadlineSeconds;
            req.parentSpan = attempt_span;
            gen = co_await node.engine->generate(std::move(req));
        }
        if (config.spans != nullptr)
            config.spans->end(attempt_span, sim.now());

        if (admitted && (gen.ok() || gen.truncated)) {
            if (config.spans != nullptr)
                config.spans->finishRequest(root, sim.now());
            if (state.autoscaler != nullptr)
                state.autoscaler->recordQueueDelay(gen.queueSeconds);
            if (state.admission != nullptr)
                state.admission->recordCompletion(sim.now());
            router.health.reportSuccess(
                static_cast<std::size_t>(target), sim.now());
            noteCompletion(state, submit, sim.now(), workload_index);
            co_return;
        }
        if (admitted && (gen.timedOut || gen.failed)) {
            if (gen.timedOut) {
                // A context-window failure is the request's fault, a
                // deadline miss is (partly) the node's: only the
                // latter feeds the breaker.
                router.health.reportFailure(
                    static_cast<std::size_t>(target), sim.now());
            }
            if (config.spans != nullptr)
                config.spans->finishRequest(root, sim.now(), true);
            noteFailure(state, submit, sim.now(), gen.timedOut);
            co_return;
        }
        // Retryable: rejected by the admission gate, shed at the
        // engine or lost to a node failure.
        if (admitted) {
            router.health.reportFailure(
                static_cast<std::size_t>(target), sim.now());
        }
        if (attempt >= config.retry.maxAttempts) {
            if (config.spans != nullptr)
                config.spans->finishRequest(root, sim.now(), true);
            noteFailure(state, submit, sim.now(), false);
            co_return;
        }
        prev_attempt = attempt_span;
        ++state.result.retries;
        if (!admitted)
            ++state.result.retriesAdmission;
        else if (gen.shed)
            ++state.result.retriesShed;
        else
            ++state.result.retriesCrash;
        telemetry::SpanRef sleep_span;
        if (config.spans != nullptr) {
            sleep_span = config.spans->child(
                root, telemetry::SpanKind::Backoff, "backoff",
                sim.now());
        }
        co_await sim::delaySec(
            sim, retrySleepSeconds(config.retry, attempt, backoff));
        if (config.spans != nullptr)
            config.spans->end(sleep_span, sim.now());
    }
}

/**
 * One rolling-restart visit to node @p index: crash it (Crash mode)
 * or drain it, migrating the leftovers to the least-loaded accepting
 * peer (DrainMigrate) or cancelling them (Drain); then wait out the
 * downtime and restart. Skips nodes the chaos injector already holds
 * down — the injector's driver owns that restart.
 */
sim::Task<void>
maintainNode(const ClusterConfig &config, sim::Simulation &sim,
             std::vector<Node> &nodes, Router &router,
             std::size_t index)
{
    serving::LlmEngine &eng = *nodes[index].engine;
    const sim::MaintenanceMode mode = config.maintenance.mode;
    if (mode == sim::MaintenanceMode::Crash) {
        if (!eng.online() || eng.draining())
            co_return;
        eng.crash();
        co_await sim::delaySec(sim,
                               config.maintenance.downtimeSeconds);
        if (!eng.online())
            eng.restart();
        co_return;
    }

    if (!eng.online() || eng.draining())
        co_return;
    serving::DrainOutcome outcome = co_await eng.drain(
        config.maintenance.drainDeadlineSeconds,
        mode == sim::MaintenanceMode::DrainMigrate);
    if (outcome.crashed) {
        // The injector crashed the node mid-drain and will restart it.
        co_return;
    }
    for (auto &leftover : outcome.leftovers) {
        const int target = router.pickForImport(index, sim.now());
        if (target >= 0) {
            nodes[static_cast<std::size_t>(target)]
                .engine->importRequest(std::move(leftover),
                                       config.migrationBandwidth);
        } else {
            // Nowhere to land it: resolve with crash semantics so the
            // client's retry loop takes over.
            eng.abortMigration(std::move(leftover));
        }
    }
    co_await sim::delaySec(sim, config.maintenance.downtimeSeconds);
    if (!eng.online())
        eng.restart();
}

/**
 * Bring standby node @p index into service: pay the simulated warm-up
 * (instance boot + model-weight load) before the engine restarts,
 * then enter routing through a HalfOpen breaker. Provisioned time —
 * and therefore cost — starts at the scale-out decision, not at
 * readiness: capacity is paid for while it boots.
 */
sim::Task<void>
scaleOutNode(const ClusterConfig &config, sim::Simulation &sim,
             std::vector<Node> &nodes, Router &router,
             std::size_t index, double warmup_seconds,
             ClusterState &state)
{
    Node &node = nodes[index];
    AGENTSIM_ASSERT(!node.provisioned,
                    "scale-out of an already provisioned node");
    node.provisioned = true;
    node.provisionedSince = sim.now();
    ++state.warmingNodes;
    state.result.warmupSecondsTotal += warmup_seconds;
    AGENTSIM_INFORM("autoscaler: node %zu booting (%.1fs warm-up)",
                    index, warmup_seconds);
    if (config.traceSink != nullptr) {
        config.traceSink->instant(telemetry::TracePid::kResilience,
                                  index, "node_boot", "autoscale",
                                  sim.now());
    }
    co_await sim::delaySec(sim, warmup_seconds);
    --state.warmingNodes;
    if (state.stopped) {
        // The run ended mid-boot: the capacity was still paid for,
        // but the node never takes traffic.
        node.provisioned = false;
        node.provisionedSeconds +=
            sim::toSeconds(sim.now() - node.provisionedSince);
        co_return;
    }
    node.engine->restart();
    router.health.markProvisioned(index, sim.now());
    ++state.activeNodes;
    state.result.peakActiveNodes =
        std::max(state.result.peakActiveNodes, state.activeNodes);
    if (state.autoscaler != nullptr)
        state.autoscaler->noteNodeReady(sim.now());
}

/**
 * Decommission node @p index losslessly: graceful drain with the
 * leftovers live-migrated to the least-loaded accepting peer (the
 * same machinery as DrainMigrate maintenance — never the crash path,
 * so scale-in torches no in-flight prefill). The node leaves the
 * active count at the drain decision (admissions close immediately)
 * and stops being billed once the drain completes.
 */
sim::Task<void>
scaleInNode(const ClusterConfig &config, sim::Simulation &sim,
            std::vector<Node> &nodes, Router &router,
            std::size_t index, ClusterState &state)
{
    Node &node = nodes[index];
    serving::LlmEngine &eng = *node.engine;
    if (!eng.online() || eng.draining()) {
        // Chaos or maintenance got there first; that driver owns the
        // node's lifecycle now.
        state.scaleInInFlight = false;
        co_return;
    }
    --state.activeNodes;
    serving::DrainOutcome outcome = co_await eng.drain(
        config.autoscaler.drainDeadlineSeconds,
        /*export_leftovers=*/true);
    if (outcome.crashed) {
        // Crashed mid-drain: the fault injector restarts it later, so
        // the node stays provisioned and returns to service.
        ++state.activeNodes;
        state.scaleInInFlight = false;
        co_return;
    }
    for (auto &leftover : outcome.leftovers) {
        const int target = router.pickForImport(index, sim.now());
        if (target >= 0) {
            nodes[static_cast<std::size_t>(target)]
                .engine->importRequest(std::move(leftover),
                                       config.migrationBandwidth);
        } else {
            // Nowhere to land it: crash semantics, client retries.
            eng.abortMigration(std::move(leftover));
        }
    }
    // drain() left the engine powered down; settle the capacity bill.
    node.provisioned = false;
    node.provisionedSeconds +=
        sim::toSeconds(sim.now() - node.provisionedSince);
    state.scaleInInFlight = false;
}

/** Standby node to scale out next, or -1 when the pool is exhausted. */
int
findStandbyNode(const std::vector<Node> &nodes)
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i].provisioned)
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * Scale-in victim: the least-loaded provisioned node that is online
 * and not draining (migrating the fewest requests), or -1.
 */
int
pickScaleInVictim(const std::vector<Node> &nodes)
{
    int best = -1;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node &node = nodes[i];
        if (!node.provisioned || !node.engine->accepting())
            continue;
        if (best < 0 ||
            node.load() <
                nodes[static_cast<std::size_t>(best)].load()) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

/**
 * Periodic pressure monitor: samples per-node queue depth into the
 * health EWMAs, feeds the brownout controller the cluster-max KV
 * utilization and SLO burn rate, and runs the autoscaler control
 * loop, spawning scale-out/scale-in operations on its decisions.
 */
sim::Task<void>
clusterMonitor(const ClusterConfig &config, sim::Simulation &sim,
               std::vector<Node> &nodes, Router &router,
               HealthRegistry &health, BrownoutController *brownout,
               ClusterState &state)
{
    for (;;) {
        co_await sim::delaySec(sim, config.monitorPeriodSeconds);
        if (state.stopped)
            co_return;
        const sim::Tick now = sim.now();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            health.recordQueueDepth(
                i, now,
                static_cast<double>(nodes[i].engine->queueDepth()));
        }
        if (brownout == nullptr && state.autoscaler == nullptr)
            continue;
        double kv_util = 0.0;
        for (const auto &node : nodes) {
            const auto &blocks = node.engine->blockManager();
            if (blocks.totalBlocks() > 0) {
                kv_util = std::max(
                    kv_util,
                    static_cast<double>(blocks.blocksInUse()) /
                        static_cast<double>(blocks.totalBlocks()));
            }
        }
        double burn = 0.0;
        if (config.slo != nullptr) {
            for (auto metric :
                 {telemetry::SloMetric::Ttft, telemetry::SloMetric::Tbt,
                  telemetry::SloMetric::E2e}) {
                burn = std::max(
                    burn, config.slo->windowBurnRate(metric, now));
            }
        }
        if (brownout != nullptr)
            brownout->observe(now, kv_util, burn);
        if (state.autoscaler == nullptr || state.scaleInInFlight)
            continue;
        const ScaleDecision decision = state.autoscaler->evaluate(
            now, state.activeNodes, state.warmingNodes, burn);
        if (decision == ScaleDecision::ScaleOut) {
            const int idx = findStandbyNode(nodes);
            AGENTSIM_ASSERT(idx >= 0,
                            "scale-out past the standby pool");
            state.scaleOps.push_back(scaleOutNode(
                config, sim, nodes, router,
                static_cast<std::size_t>(idx),
                nodeWarmupSeconds(config.autoscaler,
                                  config.engineConfig.model,
                                  config.engineConfig.node),
                state));
        } else if (decision == ScaleDecision::ScaleIn) {
            const int victim = pickScaleInVictim(nodes);
            if (victim >= 0) {
                state.scaleInInFlight = true;
                state.scaleOps.push_back(scaleInNode(
                    config, sim, nodes, router,
                    static_cast<std::size_t>(victim), state));
            }
        }
    }
}

/**
 * Read-only time-series sampler: records cluster vitals (queue
 * depths, running batches, KV pressure, burn rates, outcome counts)
 * and every registry scalar into the windowed store at a fixed
 * cadence. Consumes no RNG and mutates no sim state, so attaching it
 * never changes a run's outcome; it merely adds wake-up events. Not
 * spawned at all when no store is attached — recorder-off runs are
 * bit-identical.
 */
sim::Task<void>
timeseriesSampler(const ClusterConfig &config, sim::Simulation &sim,
                  std::vector<Node> &nodes, ClusterState &state)
{
    telemetry::TimeSeriesStore &ts = *config.timeseries;
    for (;;) {
        co_await sim::delaySec(sim, config.timeseriesPeriodSeconds);
        const sim::Tick now = sim.now();
        double queued = 0.0;
        double running = 0.0;
        double kv_util = 0.0;
        int online = 0;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const serving::LlmEngine &engine = *nodes[i].engine;
            const double depth =
                static_cast<double>(engine.queueDepth());
            queued += depth;
            running += static_cast<double>(engine.runningCount());
            if (engine.online())
                ++online;
            ts.record(sim::strfmt("node%zu_queue_depth", i), now,
                      depth);
            const auto &blocks = engine.blockManager();
            if (blocks.totalBlocks() > 0) {
                kv_util = std::max(
                    kv_util,
                    static_cast<double>(blocks.blocksInUse()) /
                        static_cast<double>(blocks.totalBlocks()));
            }
        }
        ts.record("cluster_queue_depth", now, queued);
        ts.record("cluster_running", now, running);
        ts.record("cluster_kv_util_max", now, kv_util);
        ts.record("cluster_online_nodes", now,
                  static_cast<double>(online));
        ts.record("cluster_completed", now,
                  static_cast<double>(state.result.completed));
        ts.record("cluster_failed", now,
                  static_cast<double>(state.result.failed));
        ts.record("cluster_timed_out", now,
                  static_cast<double>(state.result.timedOut));
        if (config.slo != nullptr) {
            ts.record("slo_burn_ttft", now,
                      config.slo->windowBurnRate(
                          telemetry::SloMetric::Ttft, now));
            ts.record("slo_burn_tbt", now,
                      config.slo->windowBurnRate(
                          telemetry::SloMetric::Tbt, now));
            ts.record("slo_burn_e2e", now,
                      config.slo->windowBurnRate(
                          telemetry::SloMetric::E2e, now));
        }
        if (config.metrics != nullptr)
            ts.sample(*config.metrics, now);
        if (state.stopped)
            co_return;
    }
}

sim::Task<void>
clusterDriver(const ClusterConfig &config, sim::Simulation &sim,
              std::vector<Node> &nodes, Router &router,
              BrownoutController *brownout, sim::FaultInjector *faults,
              sim::MaintenanceSchedule *maintenance,
              ClusterState &state)
{
    sim::Rng arrivals(config.seed, "cluster.arrivals", 0);
    sim::Rng mixer(config.seed, "cluster.mix", 0);
    std::vector<double> weights;
    weights.reserve(config.mix.size());
    for (const auto &spec : config.mix)
        weights.push_back(spec.weight);

    // Diurnal arrivals are a non-homogeneous Poisson process sampled
    // by thinning against the pattern's rate envelope; Constant keeps
    // the classic single-draw path (bit-identical RNG consumption to
    // the pre-autoscaler driver).
    const bool diurnal =
        config.arrival.kind == ArrivalPattern::Kind::Diurnal;
    const double rate_max = config.arrival.maxQps(config.qps);

    std::vector<sim::Task<void>> workers;
    workers.reserve(static_cast<std::size_t>(config.numRequests));
    for (int i = 0; i < config.numRequests; ++i) {
        if (i > 0) {
            if (!diurnal) {
                co_await sim::delaySec(
                    sim, arrivals.exponential(1.0 / config.qps));
            } else {
                for (;;) {
                    co_await sim::delaySec(
                        sim, arrivals.exponential(1.0 / rate_max));
                    const double rate = config.arrival.rateAt(
                        sim::toSeconds(sim.now()), config.qps);
                    if (arrivals.uniform(0.0, 1.0) * rate_max <= rate)
                        break;
                }
            }
        }
        if (state.autoscaler != nullptr)
            state.autoscaler->recordArrival(sim.now());
        const std::size_t which = mixer.categorical(weights);
        const WorkloadSpec &spec = config.mix[which];
        const auto index = static_cast<std::uint64_t>(i);
        if (spec.chatbot) {
            workers.push_back(clusterChatWorker(config, sim, nodes,
                                                router, spec, which,
                                                index, state));
        } else {
            workers.push_back(clusterAgentWorker(
                config, sim, nodes, router, brownout, spec, which,
                index, state));
        }
    }
    co_await sim::allOf(std::move(workers));
    // Workload drained: let the fault/maintenance/monitor drivers exit
    // at their next wake so the event queue can empty.
    state.stopped = true;
    if (faults != nullptr)
        faults->stop();
    if (maintenance != nullptr)
        maintenance->stop();
}

} // namespace

double
ClusterResult::aggregateHitRate() const
{
    double weighted = 0.0;
    int total = 0;
    for (const auto &node : nodes) {
        weighted += node.cacheHitRate * node.requests;
        total += node.requests;
    }
    return total > 0 ? weighted / total : 0.0;
}

void
validateClusterConfig(const ClusterConfig &config)
{
    if (config.numNodes <= 0) {
        AGENTSIM_FATAL("cluster config: numNodes must be >= 1 "
                       "(got %d)", config.numNodes);
    }
    if (config.mix.empty())
        AGENTSIM_FATAL("cluster config: workload mix is empty");
    for (const auto &spec : config.mix) {
        if (!(spec.weight > 0)) {
            AGENTSIM_FATAL("cluster config: workload weight must be "
                           "> 0 (got %g)", spec.weight);
        }
        if (!spec.chatbot &&
            !agents::agentSupports(spec.agent, spec.bench)) {
            AGENTSIM_FATAL("cluster config: unsupported "
                           "agent/benchmark pair in mix");
        }
    }
    if (!(config.qps > 0))
        AGENTSIM_FATAL("cluster config: qps must be > 0");
    if (config.numRequests <= 0)
        AGENTSIM_FATAL("cluster config: numRequests must be >= 1");
    if (config.retry.maxAttempts < 1)
        AGENTSIM_FATAL("cluster config: retry.maxAttempts must be >= 1");
    if (!(config.monitorPeriodSeconds > 0))
        AGENTSIM_FATAL("cluster config: monitor period must be > 0");
    if (!(config.migrationBandwidth > 0))
        AGENTSIM_FATAL("cluster config: migration bandwidth must be "
                       "> 0");
    if (config.chatDeadlineSeconds < 0)
        AGENTSIM_FATAL("cluster config: negative chat deadline");

    const serving::EngineConfig &eng = config.engineConfig;
    if (eng.hostCacheBlocks < 0)
        AGENTSIM_FATAL("kv tiers: negative DRAM tier capacity");
    if (eng.nvmeCacheBlocks < 0)
        AGENTSIM_FATAL("kv tiers: negative NVMe tier capacity");
    if (eng.kvDramAdmitProb < 0 || eng.kvDramAdmitProb > 1) {
        AGENTSIM_FATAL("kv tiers: dram admit probability outside "
                       "[0, 1] (got %g)", eng.kvDramAdmitProb);
    }
    if (eng.kvNvmeAdmitProb < 0 || eng.kvNvmeAdmitProb > 1) {
        AGENTSIM_FATAL("kv tiers: nvme admit probability outside "
                       "[0, 1] (got %g)", eng.kvNvmeAdmitProb);
    }
    if ((eng.hostCacheBlocks > 0 || eng.nvmeCacheBlocks > 0) &&
        !eng.enablePrefixCaching) {
        AGENTSIM_FATAL("kv tiers: spill tiers need prefix caching "
                       "(tier entries are identified by chain hash)");
    }
    if (!(eng.node.hostOffloadBandwidth > 0))
        AGENTSIM_FATAL("kv tiers: host offload bandwidth must be > 0");
    if (!(eng.node.nvmeReadBandwidth > 0))
        AGENTSIM_FATAL("kv tiers: NVMe read bandwidth must be > 0");

    const ArrivalPattern &arr = config.arrival;
    if (arr.kind == ArrivalPattern::Kind::Diurnal) {
        if (!(arr.periodSeconds > 0))
            AGENTSIM_FATAL("arrival pattern: period must be > 0");
        if (!(arr.baseQps > 0) || arr.peakQps < arr.baseQps) {
            AGENTSIM_FATAL("arrival pattern: need 0 < baseQps <= "
                           "peakQps (got %g..%g)",
                           arr.baseQps, arr.peakQps);
        }
        if (arr.burstMultiplier < 1)
            AGENTSIM_FATAL("arrival pattern: burst multiplier < 1");
        if (arr.burstStartFraction < 0 || arr.burstStartFraction >= 1)
            AGENTSIM_FATAL("arrival pattern: burst start fraction "
                           "outside [0, 1)");
        if (arr.burstDurationSeconds < 0 ||
            arr.burstDurationSeconds >
                (1.0 - arr.burstStartFraction) * arr.periodSeconds) {
            AGENTSIM_FATAL("arrival pattern: burst window overruns "
                           "its period");
        }
    }

    const BrownoutConfig &b = config.brownout;
    if (b.enabled) {
        if (b.kvLowWatermark >= b.kvHighWatermark)
            AGENTSIM_FATAL("brownout: KV watermarks inverted "
                           "(low %g >= high %g)",
                           b.kvLowWatermark, b.kvHighWatermark);
        if (b.burnLowThreshold >= b.burnHighThreshold)
            AGENTSIM_FATAL("brownout: burn thresholds inverted");
        if (b.maxLevel < 1 || b.maxLevel > 2)
            AGENTSIM_FATAL("brownout: maxLevel must be 1 or 2");
        if (b.holdSeconds < 0)
            AGENTSIM_FATAL("brownout: negative dwell time");
    }

    const AutoscalerConfig &a = config.autoscaler;
    if (a.enabled) {
        if (a.minNodes < 1) {
            AGENTSIM_FATAL("autoscaler: a 0-node floor cannot serve "
                           "(minNodes %d)", a.minNodes);
        }
        if (a.minNodes > a.maxNodes) {
            AGENTSIM_FATAL("autoscaler: minNodes %d > maxNodes %d",
                           a.minNodes, a.maxNodes);
        }
        if (config.numNodes < a.minNodes ||
            config.numNodes > a.maxNodes) {
            AGENTSIM_FATAL("autoscaler: initial fleet (%d) outside "
                           "[minNodes %d, maxNodes %d]",
                           config.numNodes, a.minNodes, a.maxNodes);
        }
        if (!(a.targetUtilization > 0) || a.targetUtilization > 1)
            AGENTSIM_FATAL("autoscaler: target utilization outside "
                           "(0, 1]");
        if (!(a.queueDelayQuantile > 0) || a.queueDelayQuantile >= 1)
            AGENTSIM_FATAL("autoscaler: queue-delay quantile outside "
                           "(0, 1)");
        if (a.minDelaySamples < 1)
            AGENTSIM_FATAL("autoscaler: minDelaySamples must be >= 1");
        if (a.queueDelayLowSeconds > a.queueDelayHighSeconds)
            AGENTSIM_FATAL("autoscaler: queue-delay thresholds "
                           "inverted");
        if (a.burnLowThreshold > a.burnHighThreshold)
            AGENTSIM_FATAL("autoscaler: burn thresholds inverted");
        if (a.nodeServiceQps < 0)
            AGENTSIM_FATAL("autoscaler: negative node service rate");
        if (a.nodeServiceQps > 0 &&
            a.scaleInUtilization >= a.targetUtilization) {
            AGENTSIM_FATAL("autoscaler: scale-in utilization %g must "
                           "sit below target %g (hysteresis)",
                           a.scaleInUtilization, a.targetUtilization);
        }
        if (a.scaleOutCooldownSeconds < 0 ||
            a.scaleInCooldownSeconds < 0) {
            AGENTSIM_FATAL("autoscaler: negative cooldown");
        }
        if (a.nodeBootSeconds < 0 || a.weightLoadBandwidth < 0)
            AGENTSIM_FATAL("autoscaler: negative warm-up parameter");
        if (a.drainDeadlineSeconds < 0)
            AGENTSIM_FATAL("autoscaler: negative drain deadline");
        if (!(a.admissionDeadlineFraction > 0) ||
            a.admissionDeadlineFraction > 1) {
            AGENTSIM_FATAL("autoscaler: admission deadline fraction "
                           "outside (0, 1]");
        }
        if (a.admissionMaxDelaySeconds < 0)
            AGENTSIM_FATAL("autoscaler: negative admission delay cap");
        if (!(a.arrivalTauSeconds > 0))
            AGENTSIM_FATAL("autoscaler: arrival EWMA tau must be > 0");
    }
    if (config.checkpoint.enabled) {
        const auto &ck = config.checkpoint;
        if (ck.everyIterations < 1)
            AGENTSIM_FATAL("checkpoint: everyIterations must be >= 1");
        if (ck.minIterations < 1)
            AGENTSIM_FATAL("checkpoint: minIterations must be >= 1");
        if (ck.admitProb < 0 || ck.admitProb > 1)
            AGENTSIM_FATAL("checkpoint: admitProb outside [0, 1]");
        if (!(ck.wireBandwidth > 0))
            AGENTSIM_FATAL("checkpoint: wire bandwidth must be > 0");
        if (ck.journalBytes < 0)
            AGENTSIM_FATAL("checkpoint: negative journal overhead");
    }
}

ClusterResult
runCluster(const ClusterConfig &config)
{
    validateClusterConfig(config);

    const bool autoscaled = config.autoscaler.enabled;
    const int total_nodes =
        autoscaled ? config.autoscaler.maxNodes : config.numNodes;

    sim::Simulation sim;
    std::vector<Node> nodes;
    nodes.reserve(static_cast<std::size_t>(total_nodes));
    for (int i = 0; i < total_nodes; ++i) {
        Node node;
        auto engine_cfg = config.engineConfig;
        engine_cfg.seed =
            sim::hashCombine(config.seed,
                             static_cast<std::uint64_t>(i));
        node.engine =
            std::make_unique<serving::LlmEngine>(sim, engine_cfg);
        if (config.traceSink != nullptr)
            node.engine->attachTrace(config.traceSink);
        if (config.slo != nullptr)
            node.engine->attachSlo(config.slo);
        if (config.spans != nullptr)
            node.engine->attachSpans(config.spans);
        for (int b = 0; b <= static_cast<int>(
                                 workload::Benchmark::HumanEval);
             ++b) {
            node.toolsByBenchmark.push_back(workload::makeToolSet(
                static_cast<workload::Benchmark>(b), sim,
                *node.engine, config.seed));
        }
        nodes.push_back(std::move(node));
    }
    // Autoscaled runs pre-build the whole [0, maxNodes) pool and park
    // the surplus in standby (offline, empty, unbilled); the initial
    // numNodes serve — and are billed — from t = 0.
    for (int i = config.numNodes; i < total_nodes; ++i)
        nodes[static_cast<std::size_t>(i)].engine->standby();
    for (int i = 0; i < config.numNodes; ++i) {
        nodes[static_cast<std::size_t>(i)].provisioned = true;
        nodes[static_cast<std::size_t>(i)].provisionedSince = 0;
    }

    // Health + breakers are always wired (with no failures every
    // breaker stays Closed and routing degenerates to the pure
    // availability-based behaviour); brownout is opt-in.
    HealthRegistry health(config.health, nodes.size());
    if (config.traceSink != nullptr)
        health.attachTrace(config.traceSink);
    std::optional<BrownoutController> brownout;
    if (config.brownout.enabled) {
        brownout.emplace(config.brownout);
        if (config.traceSink != nullptr)
            brownout->attachTrace(config.traceSink);
    }

    ClusterState state;
    state.result.perWorkloadSeconds.resize(config.mix.size());
    state.activeNodes = config.numNodes;
    state.result.peakActiveNodes = config.numNodes;
    Router router{config.policy, nodes, health, 0};

    // Episode checkpoint store: only constructed when enabled, so a
    // disabled run touches no new state (bit-identity with the
    // pre-checkpoint builds).
    std::optional<serving::CheckpointStore> checkpoints;
    if (config.checkpoint.enabled) {
        checkpoints.emplace(config.checkpoint, config.seed);
        state.checkpoints = &*checkpoints;
    }

    std::optional<AutoscalerController> autoscaler;
    std::optional<AdmissionController> admission;
    if (autoscaled) {
        autoscaler.emplace(config.autoscaler);
        if (config.traceSink != nullptr)
            autoscaler->attachTrace(config.traceSink);
        state.autoscaler = &*autoscaler;
        if (config.autoscaler.admissionControl) {
            admission.emplace(config.autoscaler);
            state.admission = &*admission;
        }
    }

    // Flight-recorder wiring: tee trace events and span completions
    // into the retroactive rings and arm every anomaly trigger. The
    // sink/collector attach calls run even with a null recorder so a
    // session reused across sweep points detaches cleanly when this
    // run records nothing.
    if (config.traceSink != nullptr)
        config.traceSink->attachRecorder(config.recorder);
    if (config.spans != nullptr)
        config.spans->attachRecorder(config.recorder);
    if (config.slo != nullptr)
        config.slo->attachRecorder(config.recorder);
    if (config.recorder != nullptr) {
        config.recorder->attachTimeSeries(config.timeseries);
        health.attachRecorder(config.recorder);
        if (brownout)
            brownout->attachRecorder(config.recorder);
        if (autoscaler)
            autoscaler->attachRecorder(config.recorder);
        state.recorder = config.recorder;
    }

    // Chaos wiring: node-level faults drive the engines through the
    // injector's hooks; tool-level faults are sampled inside each
    // tool from its own deterministic stream. The hooks are guarded
    // against colliding with a concurrent maintenance drain: a
    // draining engine is not crashed again, and a node someone else
    // already restarted is left alone.
    std::optional<sim::FaultInjector> faults;
    if (config.faults.nodeFaultsEnabled()) {
        faults.emplace(sim, config.faults);
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            serving::LlmEngine *engine = nodes[i].engine.get();
            faults->attachNode(
                i, sim::FaultInjector::NodeHooks{
                       [engine] {
                           if (engine->online())
                               engine->crash();
                       },
                       [engine] {
                           if (!engine->online())
                               engine->restart();
                       },
                       [engine](double s) { engine->injectStall(s); },
                   });
        }
    }
    if (config.faults.toolFaultsEnabled()) {
        tools::FaultProfile profile;
        profile.failureProb = config.faults.toolFailureProb;
        profile.failureSeconds = config.faults.toolFailureSeconds;
        profile.slowdownProb = config.faults.toolSlowdownProb;
        profile.slowdownFactor = config.faults.toolSlowdownFactor;
        profile.seed = config.faults.seed;
        for (auto &node : nodes) {
            for (auto &set : node.toolsByBenchmark) {
                for (std::size_t t = 0; t < set->size(); ++t)
                    set->at(t).setFaults(profile);
            }
        }
    }

    // Planned churn: the maintenance schedule takes nodes out of
    // service round-robin, through crash or (migrating) drain.
    std::optional<sim::MaintenanceSchedule> maintenance;
    if (config.maintenance.enabled()) {
        maintenance.emplace(
            sim, config.maintenance, nodes.size(),
            [&config, &sim, &nodes, &router](std::size_t index) {
                return maintainNode(config, sim, nodes, router, index);
            });
    }

    std::optional<sim::Task<void>> monitor;
    if (config.brownout.enabled || config.maintenance.enabled() ||
        autoscaled) {
        monitor.emplace(clusterMonitor(config, sim, nodes, router,
                                       health,
                                       brownout ? &*brownout : nullptr,
                                       state));
    }
    std::optional<sim::Task<void>> sampler;
    if (config.timeseries != nullptr)
        sampler.emplace(timeseriesSampler(config, sim, nodes, state));

    auto drive = clusterDriver(config, sim, nodes, router,
                               brownout ? &*brownout : nullptr,
                               faults ? &*faults : nullptr,
                               maintenance ? &*maintenance : nullptr,
                               state);
    sim.run();
    AGENTSIM_ASSERT(drive.done(), "cluster driver did not finish");
    AGENTSIM_ASSERT(state.result.completed + state.result.failed ==
                        config.numRequests,
                    "cluster lost requests");

    ClusterResult out = std::move(state.result);
    out.makespanSeconds = sim::toSeconds(
        state.lastFinish - std::max<sim::Tick>(0, state.firstSubmit));
    if (faults)
        out.faultStats = faults->stats();
    if (maintenance)
        out.maintenanceStats = maintenance->stats();
    out.breakerOpens = health.opens();
    out.breakerCloses = health.closes();
    out.failOpenPicks = health.failOpenPicks();
    if (brownout) {
        out.brownoutEscalations = brownout->escalations();
        out.brownoutRestorations = brownout->restorations();
        out.brownoutDegradedRollouts = brownout->degradedRollouts();
        out.brownoutMaxLevel = brownout->maxLevelReached();
    }
    // Settle the capacity bill for nodes still provisioned at the
    // end (static fleets: every node, for the whole run).
    const sim::Tick sim_end = sim.now();
    for (auto &node : nodes) {
        if (node.provisioned) {
            node.provisionedSeconds +=
                sim::toSeconds(sim_end - node.provisionedSince);
            node.provisioned = false;
        }
        out.provisionedNodeSeconds += node.provisionedSeconds;
    }
    out.provisionedGpuSeconds =
        out.provisionedNodeSeconds * config.engineConfig.node.numGpus;
    if (autoscaler) {
        out.scaleOuts = autoscaler->scaleOuts();
        out.scaleIns = autoscaler->scaleIns();
    }
    if (config.recorder != nullptr)
        out.incidentBundles = config.recorder->incidentsDumped();
    if (checkpoints) {
        // Merge store-side accounting (snapshots/bytes/write time)
        // into the worker-accumulated resume/recovered/lost figures.
        const auto &cs = checkpoints->stats();
        out.recovery.checkpointsTaken = cs.checkpointsTaken;
        out.recovery.bytesWritten = cs.bytesWritten;
        out.recovery.snapshotSeconds = cs.snapshotSeconds;
    }
    for (const auto &node : nodes) {
        // Every cancelled/crashed/finished request must have returned
        // its blocks; chaos runs exercise this hard.
        node.engine->blockManager().checkInvariants();
    }
    for (const auto &node : nodes) {
        NodeResult nr;
        nr.requests = node.assigned;
        nr.cacheHitRate = node.engine->cacheStats().hitRate();
        nr.engineStats = node.engine->stats();
        out.drains += nr.engineStats.drains;
        out.migratedRequests += nr.engineStats.requestsMigratedOut;
        out.migrationFallbacks += nr.engineStats.migrationFallbacks;
        out.migrationSeconds += nr.engineStats.migrationSeconds;
        out.lostPrefillSeconds += nr.engineStats.lostPrefillSeconds;
        out.nodes.push_back(nr);
    }
    if (config.metrics != nullptr) {
        serving::EngineStats sum;
        for (const auto &nr : out.nodes) {
            sum.requestsCancelled += nr.engineStats.requestsCancelled;
            sum.requestsTimedOut += nr.engineStats.requestsTimedOut;
            sum.requestsShed += nr.engineStats.requestsShed;
            sum.crashes += nr.engineStats.crashes;
        }
        auto set = [&](const char *name, const char *help, double v) {
            config.metrics->counter(name, help).set(v);
        };
        set("agentsim_client_retries_total",
            "Client retry attempts across all requests", out.retries);
        // Per-cause splits (the registry has no label dimension, so
        // causes are family suffixes; see sanitizeMetricLabel).
        set("agentsim_client_retries_crash_total",
            "Retries caused by node failure or offline routing",
            out.retriesCrash);
        set("agentsim_client_retries_shed_total",
            "Retries caused by engine admission shedding",
            out.retriesShed);
        set("agentsim_client_retries_admission_total",
            "Retries caused by predictive admission reject-fast",
            out.retriesAdmission);
        set("agentsim_client_failovers_total",
            "Retries rerouted to a different node", out.failovers);
        set("agentsim_client_failovers_offline_total",
            "Failovers off a crashed or draining node",
            out.failoversOffline);
        set("agentsim_client_failovers_breaker_total",
            "Failovers off a breaker-open node",
            out.failoversBreaker);
        set("agentsim_client_failovers_rebalance_total",
            "Failovers to a less-loaded peer (previous node healthy)",
            out.failoversRebalance);
        set("agentsim_cluster_requests_cancelled_total",
            "Requests cancelled across all nodes",
            static_cast<double>(sum.requestsCancelled));
        set("agentsim_cluster_requests_timed_out_total",
            "Requests that missed their deadline across all nodes",
            static_cast<double>(sum.requestsTimedOut));
        set("agentsim_cluster_requests_shed_total",
            "Requests shed by admission control across all nodes",
            static_cast<double>(sum.requestsShed));
        set("agentsim_cluster_node_crashes_total",
            "Injected node crashes across the cluster",
            static_cast<double>(sum.crashes));
        set("agentsim_resilience_drains_total",
            "Graceful node drains across the cluster",
            static_cast<double>(out.drains));
        set("agentsim_resilience_migrations_total",
            "Requests live-migrated between nodes",
            static_cast<double>(out.migratedRequests));
        set("agentsim_resilience_migration_fallbacks_total",
            "Migrations that landed cold (target lacked free blocks)",
            static_cast<double>(out.migrationFallbacks));
        set("agentsim_resilience_migration_seconds_total",
            "Interconnect+PCIe seconds spent moving KV between nodes",
            out.migrationSeconds);
        set("agentsim_resilience_lost_prefill_seconds_total",
            "Prefill GPU-s thrown away by crash-cancelled requests",
            out.lostPrefillSeconds);
        set("agentsim_recovery_lost_gpu_seconds_total",
            "Episode GPU-seconds recomputed by retries (work since "
            "the last checkpoint; everything when checkpointing is "
            "off)",
            out.recovery.lostGpuSeconds);
        if (config.checkpoint.enabled) {
            set("agentsim_recovery_checkpoints_total",
                "Episode snapshots journaled",
                static_cast<double>(out.recovery.checkpointsTaken));
            set("agentsim_recovery_snapshot_bytes_total",
                "Bytes written into the checkpoint store "
                "(delta-journaled)",
                static_cast<double>(out.recovery.bytesWritten));
            set("agentsim_recovery_snapshot_seconds_total",
                "Background wire-seconds spent writing snapshots",
                out.recovery.snapshotSeconds);
            set("agentsim_recovery_resumes_total",
                "Retries that resumed from a checkpoint",
                static_cast<double>(out.recovery.resumes));
            set("agentsim_recovery_kv_restores_total",
                "Resumes that warmed prefix KV over the wire",
                static_cast<double>(out.recovery.kvRestores));
            set("agentsim_recovery_cold_fallbacks_total",
                "Resumes that recomputed the prefix cold",
                static_cast<double>(out.recovery.coldFallbacks));
            set("agentsim_recovery_restore_seconds_total",
                "Wire-seconds spent restoring prefix KV on resume",
                out.recovery.restoreSeconds);
            set("agentsim_recovery_recovered_gpu_seconds_total",
                "Episode GPU-seconds checkpoint-resume did not "
                "recompute",
                out.recovery.recoveredGpuSeconds);
            set("agentsim_recovery_recovered_crash_gpu_seconds_total",
                "Recovered GPU-seconds attributed to node crashes",
                out.recovery.recoveredCrashGpuSeconds);
            set("agentsim_recovery_recovered_shed_gpu_seconds_total",
                "Recovered GPU-seconds attributed to load shedding",
                out.recovery.recoveredShedGpuSeconds);
        }
        health.exportMetrics(*config.metrics, sim.now());
        if (brownout)
            brownout->exportMetrics(*config.metrics, sim.now());
        if (config.recorder != nullptr)
            config.recorder->exportMetrics(*config.metrics);
        if (config.slo != nullptr)
            config.slo->exportMetrics(*config.metrics, sim.now());
        if (config.spans != nullptr && !config.spans->empty()) {
            exportBlameMetrics(*config.spans, *config.metrics,
                               sim.now());
            if (config.traceSink != nullptr)
                emitSpanExemplars(*config.spans, *config.traceSink);
        }
        if (config.traceSink != nullptr) {
            config.metrics
                ->gauge("agentsim_trace_dropped_events",
                        "Trace events dropped by the sink's memory "
                        "cap")
                .set(sim.now(), static_cast<double>(
                                    config.traceSink->droppedEvents()));
        }
        if (autoscaler) {
            autoscaler->exportMetrics(*config.metrics, sim.now());
            set("agentsim_autoscale_admission_rejects_total",
                "Attempts reject-fast'd by predictive admission "
                "control",
                static_cast<double>(out.admissionRejects));
            set("agentsim_autoscale_provisioned_node_seconds_total",
                "Node-seconds provisioned (busy or idle, warm-up "
                "included)",
                out.provisionedNodeSeconds);
            set("agentsim_autoscale_provisioned_gpu_seconds_total",
                "GPU-seconds provisioned (node-seconds x GPUs per "
                "node)",
                out.provisionedGpuSeconds);
            set("agentsim_autoscale_warmup_seconds_total",
                "Warm-up seconds charged to scaled-out nodes",
                out.warmupSecondsTotal);
            config.metrics
                ->gauge("agentsim_autoscale_active_nodes",
                        "Nodes currently serving traffic")
                .set(sim.now(), state.activeNodes);
        }
    }
    out.sloAlerts =
        config.slo != nullptr ? config.slo->alertsFired() : 0;
    return out;
}

} // namespace agentsim::core
