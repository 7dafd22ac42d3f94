#include "serving/engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace agentsim::serving
{

namespace
{

/** Deterministic synthetic output token for (seed, request, index). */
kv::TokenId
outputToken(std::uint64_t seed, std::uint64_t req_id, std::uint64_t idx)
{
    return sim::hashCombine(sim::hashCombine(seed, req_id ^ 0xa5a5a5a5u),
                            idx);
}

} // namespace

std::int64_t
LlmEngine::derivePoolBlocks(const EngineConfig &config)
{
    std::int64_t pool_bytes = config.kvPoolBytes;
    if (pool_bytes == 0) {
        const std::int64_t total = config.node.totalMemory();
        const std::int64_t weights = config.model.weightBytes();
        const auto reserve =
            static_cast<std::int64_t>(0.10 * static_cast<double>(total));
        pool_bytes = total - weights - reserve;
        if (pool_bytes <= 0) {
            AGENTSIM_FATAL("no GPU memory left for KV cache "
                           "(total %lld, weights %lld)",
                           static_cast<long long>(total),
                           static_cast<long long>(weights));
        }
    }
    const std::int64_t block_bytes =
        config.model.kvBytesPerToken() * config.blockSize;
    const std::int64_t blocks = pool_bytes / block_bytes;
    if (blocks <= 0)
        AGENTSIM_FATAL("KV pool smaller than one block");
    return blocks;
}

LlmEngine::LlmEngine(sim::Simulation &sim, const EngineConfig &config)
    : sim_(sim), config_(config), perf_(config.model, config.node),
      blocks_(kv::BlockManagerConfig{derivePoolBlocks(config),
                                     config.blockSize,
                                     config.enablePrefixCaching,
                                     config.evictionPolicy,
                                     config.hostCacheBlocks,
                                     config.kvDramAdmitProb,
                                     config.kvDramTierMode,
                                     config.nvmeCacheBlocks,
                                     config.kvNvmeAdmitProb,
                                     config.kvNvmeTierMode,
                                     config.seed}),
      sampler_(telemetry::SamplerConfig{config.samplerStride,
                                        config.samplerCapacity}),
      loop_(runLoop())
{
}

LlmEngine::~LlmEngine()
{
    // The run loop is an infinite coroutine parked on wake_; detaching
    // it (the Task destructor default) would leak its frame, so tear
    // it down explicitly. Safe: the simulation has drained, so nothing
    // else holds a handle to the suspended frame.
    loop_.destroy();
}

void
LlmEngine::attachTrace(telemetry::TraceSink *sink)
{
    trace_ = sink;
    if (trace_ == nullptr)
        return;
    trace_->processName(telemetry::TracePid::kEngine, "LLM engine");
    trace_->threadName(telemetry::TracePid::kEngine, 1, "iterations");
    trace_->processName(telemetry::TracePid::kRequests, "requests");
}

void
LlmEngine::attachSlo(telemetry::SloTracker *slo)
{
    slo_ = slo;
    if (slo_ != nullptr && trace_ != nullptr)
        slo_->attachTrace(trace_);
}

void
LlmEngine::attachSpans(telemetry::SpanCollector *spans)
{
    spans_ = spans;
}

void
LlmEngine::chargeKv(Req &req)
{
    const sim::Tick now = sim_.now();
    if (req.heldBlocks > 0 && now > req.kvMarkTick) {
        const double charge = static_cast<double>(req.heldBlocks) *
                              sim::toSeconds(now - req.kvMarkTick);
        req.ledger.kvBlockSeconds += charge;
        stats_.kvBlockSeconds += charge;
    }
    req.kvMarkTick = now;
    req.heldBlocks = blocks_.hasSeq(req.id)
                         ? blocks_.blocksNeeded(blocks_.seqTokens(req.id))
                         : 0;
}

void
LlmEngine::chargeQueue(Req &req)
{
    if (req.queuedSince < 0)
        return;
    req.ledger.queueSeconds += sim::toSeconds(sim_.now() - req.queuedSince);
    req.queuedSince = -1;
}

void
LlmEngine::sloFailure(const Req &req)
{
    if (slo_ == nullptr)
        return;
    const sim::Tick now = sim_.now();
    if (req.firstTokenTick < 0)
        slo_->observeFailure(telemetry::SloMetric::Ttft, now);
    slo_->observeFailure(telemetry::SloMetric::E2e, now);
}

void
LlmEngine::tracePhaseBegin(Req &req, const char *phase,
                           telemetry::SpanKind kind)
{
    req.tracePhase = phase;
    req.tracePhaseStart = sim_.now();
    req.phaseSpan = {};
    if (spans_ != nullptr && req.parentSpan.valid())
        req.phaseSpan =
            spans_->child(req.parentSpan, kind, phase, sim_.now());
}

void
LlmEngine::tracePhaseEnd(Req &req)
{
    if (req.tracePhase == nullptr)
        return;
    if (trace_ != nullptr) {
        trace_->complete(telemetry::TracePid::kRequests, req.id,
                         req.tracePhase, "request",
                         req.tracePhaseStart, sim_.now());
    }
    if (spans_ != nullptr && req.phaseSpan.valid())
        spans_->end(req.phaseSpan, sim_.now());
    req.phaseSpan = {};
    req.tracePhase = nullptr;
}

std::int64_t
LlmEngine::blockBytes() const
{
    return config_.model.kvBytesPerToken() * config_.blockSize;
}

double
LlmEngine::energyJoules(sim::Tick now) const
{
    const double wall = sim::toSeconds(now);
    const double idle_seconds = std::max(0.0, wall - stats_.busySeconds);
    const double idle_power =
        config_.node.gpu.idlePower * config_.node.numGpus;
    return stats_.busyJoules + idle_power * idle_seconds;
}

sim::Task<GenResult>
LlmEngine::generate(GenRequest request, std::uint64_t *handle_out)
{
    AGENTSIM_ASSERT(!request.prompt.empty(),
                    "generate() with empty prompt");
    AGENTSIM_ASSERT(request.maxNewTokens >= 1,
                    "generate() must produce at least one token");
    if (handle_out != nullptr)
        *handle_out = 0;

    ++stats_.requestsSubmitted;

    // A crashed or draining node refuses connections; the client
    // should retry against another node once the router notices.
    if (!online_ || draining_) {
        GenResult r;
        r.nodeFailure = true;
        r.promptTokens = request.prompt.size();
        r.submitTick = sim_.now();
        r.finishTick = sim_.now();
        co_return r;
    }

    // Requests beyond the model's context window are rejected up
    // front, as a real serving endpoint would do.
    if (request.prompt.size() + request.maxNewTokens >
        config_.model.contextWindow) {
        ++stats_.requestsFailed;
        AGENTSIM_WARN("request exceeds the %lld-token context window",
                      static_cast<long long>(
                          config_.model.contextWindow));
        GenResult r;
        r.failed = true;
        r.promptTokens = request.prompt.size();
        r.submitTick = sim_.now();
        r.finishTick = sim_.now();
        co_return r;
    }

    // Admission control: bound the waiting queue rather than letting
    // overload turn into unbounded queueing delay (SLO load shedding).
    // Only fresh arrivals count against the depth: preemption victims
    // and migration fallbacks are work already admitted once, and
    // counting them would shed new requests during transient KV
    // pressure that the preemptions themselves resolve.
    if (config_.maxQueueDepth > 0 &&
        waiting_.size() - requeuedInWaiting_ >= config_.maxQueueDepth) {
        ++stats_.requestsShed;
        if (trace_ != nullptr) {
            trace_->instant(telemetry::TracePid::kEngine, 1, "shed",
                            "engine", sim_.now());
        }
        if (slo_ != nullptr) {
            slo_->observeFailure(telemetry::SloMetric::Ttft, sim_.now());
            slo_->observeFailure(telemetry::SloMetric::E2e, sim_.now());
        }
        GenResult r;
        r.shed = true;
        r.promptTokens = request.prompt.size();
        r.submitTick = sim_.now();
        r.finishTick = sim_.now();
        co_return r;
    }

    auto req = std::make_shared<Req>(sim_);
    req->owner = this;
    req->id = nextId_++;
    req->sessionId = request.sessionId;
    req->prompt = std::move(request.prompt);
    req->maxNewTokens = request.maxNewTokens;
    req->parkSeconds = request.expectedParkSeconds;
    req->submitTick = sim_.now();
    req->firstPromptLen = req->prompt.size();
    if (request.deadlineSeconds > 0) {
        req->deadlineTick =
            sim_.now() + sim::fromSeconds(request.deadlineSeconds);
    }
    if (handle_out != nullptr)
        *handle_out = req->id;

    req->parentSpan = request.parentSpan;
    req->queuedSince = sim_.now();
    waiting_.push_back(req);
    if (trace_ != nullptr) {
        trace_->threadName(telemetry::TracePid::kRequests, req->id,
                           sim::strfmt("req %llu",
                                       static_cast<unsigned long long>(
                                           req->id)));
    }
    tracePhaseBegin(*req, "queued", telemetry::SpanKind::Queue);
    if (wake_ && !wake_->ready())
        wake_->set(1);

    GenResult result = co_await req->done;
    co_return result;
}

sim::Task<void>
LlmEngine::runLoop()
{
    for (;;) {
        if (waiting_.empty() && running_.empty()) {
            wake_.emplace(sim_);
            co_await *wake_;
            wake_.reset();
        }
        expireDeadlines();
        StepPlan &plan = buildStep();
        if (plan.work.empty())
            continue; // everything failed at admission; re-check
        const llm::StepCost cost = perf_.stepCost(plan.work);
        const sim::Tick step_start = sim_.now();
        co_await sim::delay(
            sim_, sim::fromSeconds(cost.seconds + plan.extraSeconds +
                                   plan.stallSeconds));
        commitStep(plan, cost, step_start);
    }
}

void
LlmEngine::preemptOne(StepPlan &plan)
{
    AGENTSIM_ASSERT(!running_.empty(), "preempt with empty batch");
    ReqPtr victim = running_.back();
    running_.pop_back();
    std::erase(plan.decoders, victim);

    // Settle the occupancy charge and remember how much KV is being
    // thrown away: re-prefilling below this watermark is pure waste.
    chargeKv(*victim);
    victim->recomputeWatermark = blocks_.seqTokens(victim->id);
    blocks_.release(victim->id);
    victim->heldBlocks = 0;
    // Recompute-style preemption: generated tokens fold into the
    // prompt; on re-admission the prefix cache usually restores them.
    victim->prompt.append(victim->output);
    victim->prefillDone = 0;
    victim->decoding = false;
    ++victim->preemptions;
    ++stats_.preemptions;
    tracePhaseEnd(*victim);
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, victim->id,
                        "preempt", "request", sim_.now());
    }
    if (spans_ != nullptr && victim->parentSpan.valid()) {
        auto marker =
            spans_->child(victim->parentSpan, telemetry::SpanKind::Preempt,
                          "preempt", sim_.now());
        spans_->end(marker, sim_.now());
    }
    requeueRequest(victim, /*front=*/true);
}

void
LlmEngine::noteLeftWaiting(Req &req)
{
    if (req.requeued) {
        req.requeued = false;
        AGENTSIM_ASSERT(requeuedInWaiting_ > 0,
                        "re-admission count underflow");
        --requeuedInWaiting_;
    }
}

void
LlmEngine::requeueRequest(const ReqPtr &req, bool front)
{
    tracePhaseBegin(*req, "queued", telemetry::SpanKind::Queue);
    req->queuedSince = sim_.now();
    req->requeued = true;
    ++requeuedInWaiting_;
    if (front)
        waiting_.push_front(req);
    else
        waiting_.push_back(req);
}

void
LlmEngine::failRequest(const ReqPtr &req)
{
    ++stats_.requestsFailed;
    AGENTSIM_WARN("request %llu cannot fit in the KV pool; failing",
                  static_cast<unsigned long long>(req->id));
    req->finished = true;
    req->decoding = false;
    chargeQueue(*req);
    tracePhaseEnd(*req);
    sloFailure(*req);
    GenResult r;
    r.failed = true;
    r.promptTokens = req->firstPromptLen;
    r.submitTick = req->submitTick;
    r.finishTick = sim_.now();
    r.totalSeconds = sim::toSeconds(r.finishTick - r.submitTick);
    r.ledger = req->ledger;
    req->done.set(std::move(r));
}

void
LlmEngine::finishRequest(const ReqPtr &req)
{
    chargeKv(*req);
    blocks_.release(req->id);
    req->heldBlocks = 0;
    std::erase(running_, req);
    req->finished = true;
    req->decoding = false;
    tracePhaseEnd(*req);
    ++stats_.requestsCompleted;
    sessionService_[req->sessionId] +=
        req->prefillSecondsAcc + req->decodeSecondsAcc;
    maybeParkChain(req);

    GenResult r;
    r.tokens = req->output;
    r.truncated = req->truncated;
    r.promptTokens = req->firstPromptLen;
    r.cachedPromptTokens = req->cachedPromptTokens;
    r.queueSeconds =
        sim::toSeconds(req->firstScheduleTick - req->submitTick);
    r.prefillSeconds = req->prefillSecondsAcc;
    r.decodeSeconds = req->decodeSecondsAcc;
    r.transferSeconds = req->transferSecondsAcc;
    r.flops = req->flopsAcc;
    r.preemptions = req->preemptions;
    r.submitTick = req->submitTick;
    r.finishTick = sim_.now();
    r.totalSeconds = sim::toSeconds(r.finishTick - r.submitTick);
    if (req->firstTokenTick >= 0) {
        r.ttftSeconds =
            sim::toSeconds(req->firstTokenTick - req->submitTick);
    }
    r.ledger = req->ledger;
    if (slo_ != nullptr) {
        slo_->observe(telemetry::SloMetric::E2e, sim_.now(),
                      r.totalSeconds);
    }
    req->done.set(std::move(r));
}

void
LlmEngine::maybeParkChain(const ReqPtr &req)
{
    if (req->parkSeconds <= 0.0 || !config_.enablePrefixCaching ||
        !blocks_.spillTiersEnabled()) {
        return;
    }
    // Parking trades a free HBM hit for a priced restore, so it only
    // pays off under contention: someone is waiting for blocks, or
    // live sequences pin most of the pool (the finishing request's
    // own blocks were already released above).
    const double pinned_fraction =
        static_cast<double>(blocks_.usedBlocks()) /
        static_cast<double>(std::max<std::int64_t>(
            blocks_.totalBlocks(), 1));
    if (waiting_.empty() &&
        pinned_fraction < config_.parkUtilizationThreshold) {
        return;
    }
    // The continuation's prompt extends this request's full chain
    // (prompt + output); that is what must survive the tool wait.
    kv::TokenChain chain = req->prompt;
    chain.append(req->output);
    const std::int64_t parked = blocks_.parkChain(chain);
    if (parked <= 0)
        return;
    ++stats_.parkedChains;
    stats_.parkedBlocks += parked;

    const double block_bytes = static_cast<double>(blockBytes());
    const double demote_seconds =
        static_cast<double>(parked) * block_bytes /
        config_.node.hostOffloadBandwidth;
    stats_.parkDemoteSeconds += demote_seconds;
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req->id,
                        "kv_park", "request", sim_.now());
    }

    // Schedule the promotion so it completes just before the
    // continuation wakes: lead time = the restore estimate (parking
    // demotes into the first enabled tier — DRAM unless only NVMe is
    // configured). Never earlier than the demotion itself finishes.
    const double restore_bw = blocks_.tierCapacity(kv::Tier::Dram) > 0
                                  ? config_.node.hostOffloadBandwidth
                                  : config_.node.nvmeReadBandwidth;
    const double restore_estimate =
        static_cast<double>(parked) * block_bytes / restore_bw;
    const double delay = std::max(
        demote_seconds, req->parkSeconds - restore_estimate);
    const std::uint64_t trace_id = req->id;
    sim_.schedule(
        sim::fromSeconds(delay),
        [this, trace_id, chain = std::move(chain)]() {
            if (!online_)
                return; // chain died with the node's memory
            const auto got = blocks_.prefetchChain(chain);
            if (got.blocks <= 0)
                return;
            stats_.prefetchedBlocks += got.blocks;
            const double kv_bytes = static_cast<double>(
                config_.model.kvBytesPerToken());
            stats_.parkRestoreSeconds +=
                static_cast<double>(got.dramTokens) * kv_bytes /
                    config_.node.hostOffloadBandwidth +
                static_cast<double>(got.nvmeTokens) * kv_bytes /
                    config_.node.nvmeReadBandwidth;
            updateGauges();
            if (trace_ != nullptr) {
                trace_->instant(telemetry::TracePid::kRequests,
                                trace_id, "kv_prefetch", "request",
                                sim_.now());
            }
        });
    updateGauges();
}

void
LlmEngine::cancelRequest(const ReqPtr &req, CancelCause cause)
{
    AGENTSIM_ASSERT(!req->finished, "cancel of a finished request");
    chargeKv(*req);
    if (blocks_.hasSeq(req->id))
        blocks_.release(req->id);
    req->heldBlocks = 0;
    chargeQueue(*req);
    std::erase(running_, req);
    if (auto it = std::find(waiting_.begin(), waiting_.end(), req);
        it != waiting_.end()) {
        noteLeftWaiting(*req);
        waiting_.erase(it);
    }
    req->finished = true;
    req->decoding = false;
    tracePhaseEnd(*req);

    const char *label = nullptr;
    GenResult r;
    switch (cause) {
      case CancelCause::Client:
        ++stats_.requestsCancelled;
        r.cancelled = true;
        label = "cancel";
        break;
      case CancelCause::Deadline:
        ++stats_.requestsTimedOut;
        r.timedOut = true;
        label = "deadline";
        break;
      case CancelCause::NodeFailure:
        ++stats_.requestsCancelled;
        r.cancelled = true;
        r.nodeFailure = true;
        label = "node_failure";
        // Prefill work invested in this request dies with the node;
        // the client's retry pays it again from scratch.
        stats_.lostPrefillSeconds += req->ledger.prefillGpuSeconds;
        break;
    }
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req->id, label,
                        "request", sim_.now());
    }

    // Partial output and accrued accounting still reach the caller.
    r.tokens = req->output;
    r.promptTokens = req->firstPromptLen;
    r.cachedPromptTokens = req->cachedPromptTokens;
    if (req->firstScheduleTick >= 0) {
        r.queueSeconds =
            sim::toSeconds(req->firstScheduleTick - req->submitTick);
    }
    r.prefillSeconds = req->prefillSecondsAcc;
    r.decodeSeconds = req->decodeSecondsAcc;
    r.transferSeconds = req->transferSecondsAcc;
    r.flops = req->flopsAcc;
    r.preemptions = req->preemptions;
    r.submitTick = req->submitTick;
    r.finishTick = sim_.now();
    r.totalSeconds = sim::toSeconds(r.finishTick - r.submitTick);
    if (req->firstTokenTick >= 0) {
        r.ttftSeconds =
            sim::toSeconds(req->firstTokenTick - req->submitTick);
    }
    r.ledger = req->ledger;
    sloFailure(*req);
    req->done.set(std::move(r));
}

bool
LlmEngine::cancel(std::uint64_t request_id)
{
    auto match = [&](const ReqPtr &req) {
        return req->id == request_id && !req->finished;
    };
    for (const auto &req : waiting_) {
        if (match(req)) {
            cancelRequest(req, CancelCause::Client);
            updateGauges();
            return true;
        }
    }
    for (const auto &req : running_) {
        if (match(req)) {
            cancelRequest(req, CancelCause::Client);
            updateGauges();
            return true;
        }
    }
    return false;
}

void
LlmEngine::expireDeadlines()
{
    const sim::Tick now = sim_.now();
    std::vector<ReqPtr> expired;
    auto collect = [&](const ReqPtr &req) {
        if (!req->finished && req->deadlineTick >= 0 &&
            now >= req->deadlineTick) {
            expired.push_back(req);
        }
    };
    for (const auto &req : waiting_)
        collect(req);
    for (const auto &req : running_)
        collect(req);
    for (const auto &req : expired)
        cancelRequest(req, CancelCause::Deadline);
    if (!expired.empty())
        updateGauges();
}

void
LlmEngine::crash()
{
    AGENTSIM_ASSERT(online_, "crash() on an offline engine");
    online_ = false;
    ++stats_.crashes;
    AGENTSIM_INFORM("engine crash: dropping %zu waiting + %zu running "
                    "requests, KV cache lost",
                    waiting_.size(), running_.size());

    std::vector<ReqPtr> victims(waiting_.begin(), waiting_.end());
    victims.insert(victims.end(), running_.begin(), running_.end());
    for (const auto &req : victims)
        cancelRequest(req, CancelCause::NodeFailure);
    // The node's memory is gone: prefix cache and host tier come back
    // cold after restart().
    blocks_.reset();
    pendingStallSeconds_ = 0.0;
    updateGauges();
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kEngine, 1, "crash",
                        "engine", sim_.now());
    }
}

void
LlmEngine::standby()
{
    AGENTSIM_ASSERT(online_, "standby() on an offline engine");
    AGENTSIM_ASSERT(!draining_, "standby() while draining");
    AGENTSIM_ASSERT(waiting_.empty() && running_.empty(),
                    "standby() with requests in flight");
    online_ = false;
    // Power down cleanly: the KV pool empties (nothing referenced it)
    // and the prefix cache comes back cold on restart().
    blocks_.reset();
    updateGauges();
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kEngine, 1, "standby",
                        "engine", sim_.now());
    }
}

void
LlmEngine::restart()
{
    AGENTSIM_ASSERT(!online_, "restart() on an online engine");
    online_ = true;
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kEngine, 1, "restart",
                        "engine", sim_.now());
    }
}

namespace
{
/** Drain progress poll period, seconds (sim clock; cheap events). */
constexpr double kDrainPollSeconds = 0.02;
} // namespace

sim::Task<DrainOutcome>
LlmEngine::drain(double deadline_seconds, bool export_leftovers)
{
    AGENTSIM_ASSERT(online_, "drain() on an offline engine");
    AGENTSIM_ASSERT(!draining_, "drain() re-entered");
    AGENTSIM_ASSERT(deadline_seconds >= 0, "negative drain deadline");
    draining_ = true;
    const std::int64_t completed_before = stats_.requestsCompleted;
    const sim::Tick deadline =
        sim_.now() + sim::fromSeconds(deadline_seconds);
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kEngine, 1, "drain_begin",
                        "engine", sim_.now());
    }
    AGENTSIM_INFORM("engine drain: %zu waiting + %zu running, "
                    "deadline %.2fs, migration %s",
                    waiting_.size(), running_.size(), deadline_seconds,
                    export_leftovers ? "on" : "off");

    while (online_ && sim_.now() < deadline &&
           (!waiting_.empty() || !running_.empty())) {
        co_await sim::delaySec(sim_, kDrainPollSeconds);
    }

    DrainOutcome out;
    out.completed = stats_.requestsCompleted - completed_before;
    if (!online_) {
        // Crashed mid-drain; crash() already cancelled everything and
        // reset the pool. Nothing left to shut down.
        draining_ = false;
        out.crashed = true;
        co_return out;
    }

    // Deadline (or empty): whatever is left either migrates or is
    // cancelled like a crash victim (the client retries elsewhere).
    std::vector<ReqPtr> leftovers(waiting_.begin(), waiting_.end());
    leftovers.insert(leftovers.end(), running_.begin(), running_.end());
    for (const auto &req : leftovers) {
        if (export_leftovers) {
            auto migrated = exportRequest(req->id);
            AGENTSIM_ASSERT(migrated.has_value(),
                            "drain failed to export a live request");
            out.leftovers.push_back(std::move(*migrated));
        } else {
            cancelRequest(req, CancelCause::NodeFailure);
        }
    }

    // Planned shutdown: the process restarts, so the prefix cache and
    // host tier come back cold — identical cache semantics to crash(),
    // minus the dropped requests.
    online_ = false;
    draining_ = false;
    blocks_.reset();
    pendingStallSeconds_ = 0.0;
    ++stats_.drains;
    updateGauges();
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kEngine, 1,
                        "drain_complete", "engine", sim_.now());
    }
    co_return out;
}

std::optional<MigratedRequest>
LlmEngine::exportRequest(std::uint64_t id)
{
    ReqPtr req;
    for (const auto &r : running_) {
        if (r->id == id && !r->finished) {
            req = r;
            break;
        }
    }
    if (!req) {
        for (const auto &r : waiting_) {
            if (r->id == id && !r->finished) {
                req = r;
                break;
            }
        }
    }
    if (!req)
        return std::nullopt;

    chargeKv(*req);
    chargeQueue(*req);

    MigratedRequest out;
    if (blocks_.hasSeq(req->id)) {
        out.chain = blocks_.exportChain(req->id);
        // KV exists only for the prefilled part of the prompt plus
        // every generated token; trailing prompt blocks are allocated
        // but not yet computed and need no transfer.
        out.computedTokens =
            req->prefillDone +
            static_cast<std::int64_t>(req->output.size());
        blocks_.release(req->id);
        req->heldBlocks = 0;
    } else {
        // Still queued: nothing computed, the snapshot is just the
        // request state; the target admits it like a fresh arrival.
        out.chain = req->prompt;
        out.computedTokens = 0;
    }

    std::erase(running_, req);
    if (auto it = std::find(waiting_.begin(), waiting_.end(), req);
        it != waiting_.end()) {
        noteLeftWaiting(*req);
        waiting_.erase(it);
    }
    req->exported = true;
    req->owner = nullptr;
    tracePhaseEnd(*req);
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req->id,
                        "migrate_out", "request", sim_.now());
    }
    ++stats_.requestsMigratedOut;
    updateGauges();
    out.state = req;
    return out;
}

void
LlmEngine::importRequest(MigratedRequest migrated,
                         double interconnect_bandwidth)
{
    AGENTSIM_ASSERT(migrated.valid(), "import of an empty migration");
    AGENTSIM_ASSERT(interconnect_bandwidth > 0,
                    "import needs a positive interconnect bandwidth");
    auto req = std::static_pointer_cast<Req>(migrated.state);
    AGENTSIM_ASSERT(req->exported && !req->finished,
                    "import of a request that is not in flight");
    AGENTSIM_ASSERT(accepting(), "import into a non-accepting engine");

    req->owner = this;
    req->id = nextId_++;
    ++stats_.requestsMigratedIn;
    if (trace_ != nullptr) {
        trace_->threadName(
            telemetry::TracePid::kRequests, req->id,
            sim::strfmt("req %llu", static_cast<unsigned long long>(
                                        req->id)));
    }

    // Try to land the KV chain now; the blocks are reserved while the
    // transfer is in flight (the realistic order — the target commits
    // memory before the wire copy starts).
    double transfer_seconds = 0.0;
    bool warm = false;
    if (migrated.computedTokens > 0) {
        auto alloc = blocks_.importChain(req->id, migrated.chain);
        if (alloc.has_value()) {
            warm = true;
            // Locally cached (or tier-resident) prefix blocks never
            // cross the interconnect; tier restores pay PCIe (DRAM)
            // or the NVMe read instead. Wire size comes from this
            // import-side allocation — the source's block count would
            // include prefix-cached blocks we reuse locally.
            const std::int64_t wire_tokens = std::max<std::int64_t>(
                0, migrated.computedTokens - alloc->reusedTokens());
            const double kv_bytes = static_cast<double>(
                config_.model.kvBytesPerToken());
            transfer_seconds =
                static_cast<double>(wire_tokens) * kv_bytes /
                    interconnect_bandwidth +
                static_cast<double>(alloc->dramRestoredTokens) *
                    kv_bytes / config_.node.hostOffloadBandwidth +
                static_cast<double>(alloc->nvmeRestoredTokens) *
                    kv_bytes / config_.node.nvmeReadBandwidth;
            req->transferSecondsAcc += transfer_seconds;
            req->ledger.transferSeconds += transfer_seconds;
            stats_.migrationSeconds += transfer_seconds;
            // Open the occupancy interval at the reserved chain size.
            req->kvMarkTick = sim_.now();
            req->heldBlocks =
                blocks_.blocksNeeded(blocks_.seqTokens(req->id));
        } else {
            ++stats_.migrationFallbacks;
        }
    }
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req->id,
                        warm ? "migrate_in" : "migrate_in_cold",
                        "request", sim_.now());
    }
    if (transfer_seconds > 0.0 && spans_ != nullptr &&
        req->parentSpan.valid()) {
        auto transfer = spans_->child(req->parentSpan,
                                      telemetry::SpanKind::Migration,
                                      "migrate_kv", sim_.now());
        spans_->end(transfer,
                    sim_.now() + sim::fromSeconds(transfer_seconds));
    }

    if (transfer_seconds <= 0.0) {
        activateImported(req, std::move(migrated.chain),
                         migrated.computedTokens);
        return;
    }
    sim_.schedule(
        sim::fromSeconds(transfer_seconds),
        [this, req, chain = std::move(migrated.chain),
         computed = migrated.computedTokens]() mutable {
            activateImported(req, std::move(chain), computed);
        });
}

void
LlmEngine::activateImported(const ReqPtr &req,
                            kv::TokenChain chain,
                            std::int64_t computed_tokens)
{
    AGENTSIM_ASSERT(!req->finished, "activation of a finished import");
    req->exported = false;

    // The node may have crashed (losing the reserved chain) or begun
    // draining again while the transfer was in flight; cancelRequest
    // releases the chain if it survived.
    if (!accepting()) {
        cancelRequest(req, CancelCause::NodeFailure);
        return;
    }
    if (req->deadlineTick >= 0 && sim_.now() >= req->deadlineTick) {
        cancelRequest(req, CancelCause::Deadline);
        return;
    }

    if (blocks_.hasSeq(req->id)) {
        // Warm landing: the chain survived; resume decode (or chunked
        // prefill) exactly where the source left off.
        running_.push_back(req);
        chargeKv(*req);
        tracePhaseBegin(*req, req->decoding ? "decode" : "prefill",
                        req->decoding ? telemetry::SpanKind::Decode
                                      : telemetry::SpanKind::Prefill);
    } else {
        // Cold landing: recompute-preemption semantics. Generated
        // tokens fold into the prompt (the chain snapshot is exactly
        // that folded form) and re-prefilling below the old watermark
        // is charged as waste.
        if (!chain.empty())
            req->prompt = std::move(chain);
        req->recomputeWatermark =
            std::max(req->recomputeWatermark, computed_tokens);
        req->prefillDone = 0;
        req->decoding = false;
        requeueRequest(req, /*front=*/false);
    }
    updateGauges();
    if (wake_ && !wake_->ready())
        wake_->set(1);
}

void
LlmEngine::abortMigration(MigratedRequest migrated)
{
    AGENTSIM_ASSERT(migrated.valid(), "abort of an empty migration");
    auto req = std::static_pointer_cast<Req>(migrated.state);
    AGENTSIM_ASSERT(req->exported && !req->finished,
                    "abort of a request that is not in flight");
    // Not in any queue and holding no blocks: resolve the awaiter
    // directly with crash semantics so the client retries.
    req->exported = false;
    cancelRequest(req, CancelCause::NodeFailure);
}

void
LlmEngine::injectStall(double seconds)
{
    AGENTSIM_ASSERT(seconds >= 0, "negative stall");
    pendingStallSeconds_ += seconds;
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kEngine, 1,
                        sim::strfmt("stall %.2fs", seconds), "engine",
                        sim_.now());
    }
}

kv::TokenId
LlmEngine::genToken(Req &req)
{
    return outputToken(config_.seed, req.id, req.output.size());
}

std::int64_t
LlmEngine::preloadPrefix(const kv::TokenChain &prefix)
{
    const std::int64_t populated = blocks_.preloadPrefix(prefix);
    updateGauges();
    return populated;
}

LlmEngine::StepPlan &
LlmEngine::buildStep()
{
    StepPlan &plan = planScratch_;
    plan.reset();
    const int bs = config_.blockSize;

    // Injected stalls (fault layer) extend the next step's wall time.
    if (pendingStallSeconds_ > 0) {
        plan.stallSeconds = pendingStallSeconds_;
        pendingStallSeconds_ = 0.0;
    }

    // 1. Every decoding sequence gets one token this step.
    for (const auto &req : running_) {
        if (req->decoding)
            plan.decoders.push_back(req);
    }

    // 2. Reserve append capacity for decoders crossing a block
    //    boundary; preempt the newest request until it fits.
    auto append_need = [&] {
        std::int64_t need = 0;
        for (const auto &req : plan.decoders) {
            if (blocks_.seqTokens(req->id) % bs == 0)
                ++need;
        }
        return need;
    };
    while (append_need() > blocks_.availableBlocks()) {
        if (running_.size() <= 1) {
            // A lone request has filled the entire pool: truncate it.
            ReqPtr req = running_.front();
            AGENTSIM_WARN("KV pool exhausted by request %llu; "
                          "truncating output",
                          static_cast<unsigned long long>(req->id));
            req->truncated = true;
            plan.decoders.clear();
            finishRequest(req);
            break;
        }
        preemptOne(plan);
    }

    for (const auto &req : plan.decoders)
        plan.work.decodeContexts.push_back(blocks_.seqTokens(req->id));

    std::int64_t budget =
        std::max<std::int64_t>(0, config_.maxBatchTokens -
                                      static_cast<std::int64_t>(
                                          plan.decoders.size()));

    // 3. Continue chunked prefill of already-admitted requests.
    for (const auto &req : running_) {
        if (budget == 0)
            break;
        if (req->decoding)
            continue;
        const auto prompt_len = req->prompt.size();
        std::int64_t chunk =
            std::min(budget, prompt_len - req->prefillDone);
        if (chunk <= 0)
            continue;
        // Completing a prompt that ends exactly on a block boundary
        // emits its first output token into a fresh block; defer the
        // final prompt token if no block could be available.
        const bool completes = req->prefillDone + chunk == prompt_len;
        if (completes && prompt_len % bs == 0 &&
            blocks_.availableBlocks() == 0) {
            --chunk;
        }
        if (chunk <= 0)
            continue;
        plan.prefills.push_back({req, chunk});
        plan.work.prefills.push_back({chunk, req->prefillDone});
        budget -= chunk;
    }

    // 4. Admit waiting requests while budget and memory allow, in the
    //    order the scheduler policy dictates.
    while (budget > 0 && !waiting_.empty() &&
           running_.size() < static_cast<std::size_t>(
                                 config_.maxRunningSeqs)) {
        auto candidate = nextAdmissionCandidate();
        ReqPtr req = *candidate;
        const auto prompt_len = req->prompt.size();
        const std::int64_t upper_bound =
            blocks_.blocksNeeded(prompt_len) + 1;
        if (upper_bound > blocks_.totalBlocks()) {
            noteLeftWaiting(*req);
            waiting_.erase(candidate);
            failRequest(req);
            continue;
        }
        if (upper_bound > blocks_.availableBlocks())
            break; // the policy's best candidate does not fit

        auto alloc = blocks_.allocatePrompt(req->id, req->prompt);
        AGENTSIM_ASSERT(alloc.has_value(),
                        "allocation failed despite capacity check");
        noteLeftWaiting(*req);
        waiting_.erase(candidate);
        running_.push_back(req);
        chargeQueue(*req);
        chargeKv(*req); // opens the occupancy charging interval

        // Spill-tier restores skip prefill but pay the transfer back
        // to HBM: PCIe for the DRAM tier, NVMe read for the flash
        // tier.
        double restore_seconds = 0.0;
        if (alloc->restoredTokens > 0) {
            const double kv_bytes = static_cast<double>(
                config_.model.kvBytesPerToken());
            restore_seconds =
                static_cast<double>(alloc->dramRestoredTokens) *
                    kv_bytes / config_.node.hostOffloadBandwidth +
                static_cast<double>(alloc->nvmeRestoredTokens) *
                    kv_bytes / config_.node.nvmeReadBandwidth;
            plan.extraSeconds += restore_seconds;
            req->transferSecondsAcc += restore_seconds;
            req->ledger.transferSeconds += restore_seconds;
        }

        req->prefillDone = alloc->reusedTokens();
        if (req->prefillDone >= prompt_len) {
            // Fully cached prompt: recompute the last token to obtain
            // logits (vLLM does the same).
            req->prefillDone = prompt_len - 1;
        }
        if (req->prefillDone > 0) {
            // Counterfactual: what the reused tokens would have cost
            // to prefill from scratch.
            const double saved =
                perf_.prefillSeconds(req->prefillDone, 0);
            req->ledger.savedPrefillSeconds += saved;
            stats_.savedPrefillSeconds += saved;
        }
        if (req->firstScheduleTick < 0) {
            req->firstScheduleTick = sim_.now();
            req->cachedPromptTokens = alloc->reusedTokens();
        }
        tracePhaseEnd(*req); // queued
        tracePhaseBegin(*req, "prefill", telemetry::SpanKind::Prefill);
        // The restore happens inside the prefill step's wall time;
        // nesting it under the prefill span routes those seconds to
        // Migration blame while the remainder stays Prefill.
        if (restore_seconds > 0.0 && spans_ != nullptr &&
            req->phaseSpan.valid()) {
            auto restore = spans_->child(req->phaseSpan,
                                         telemetry::SpanKind::KvRestore,
                                         "kv_restore", sim_.now());
            spans_->end(restore,
                        sim_.now() + sim::fromSeconds(restore_seconds));
        }

        std::int64_t chunk =
            std::min(budget, prompt_len - req->prefillDone);
        const bool completes = req->prefillDone + chunk == prompt_len;
        if (completes && prompt_len % bs == 0 &&
            blocks_.availableBlocks() == 0) {
            --chunk;
        }
        if (chunk > 0) {
            plan.prefills.push_back({req, chunk});
            plan.work.prefills.push_back({chunk, req->prefillDone});
            budget -= chunk;
        }
    }

    if (plan.work.empty() && !running_.empty()) {
        // Pathological: a lone prompt fills the pool leaving no room
        // for its first output token. Finish it truncated rather than
        // spinning forever.
        ReqPtr req = running_.front();
        AGENTSIM_WARN("request %llu starved of append blocks; "
                      "truncating",
                      static_cast<unsigned long long>(req->id));
        req->truncated = true;
        finishRequest(req);
    }

    updateGauges();
    return plan;
}

void
LlmEngine::commitStep(const StepPlan &plan, const llm::StepCost &cost,
                      sim::Tick step_start)
{
    // A deadline landing mid-step expires *before* the step's results
    // are charged and emitted: the request neither receives nor pays
    // for tokens generated after its deadline. (The loop-top expiry
    // alone would cancel at the same tick but after the charge.)
    expireDeadlines();

    ++stats_.steps;
    stats_.busySeconds += cost.seconds;
    stats_.transferSeconds += plan.extraSeconds;
    stats_.stallSeconds += plan.stallSeconds;
    stats_.coreActiveSeconds +=
        std::min(cost.computeSeconds, cost.seconds);
    stats_.prefillTokens += cost.prefillTokens;
    stats_.decodeTokens += cost.decodeTokens;
    stats_.totalFlops += cost.flops;

    // Attribute step time to prefill vs decode by the cost each phase
    // would have alone (both include the fixed step overhead, which
    // therefore splits proportionally).
    double prefill_share = 0.0;
    double decode_share = 0.0;
    {
        llm::StepWork prefill_only;
        prefill_only.prefills = plan.work.prefills;
        llm::StepWork decode_only;
        decode_only.decodeContexts = plan.work.decodeContexts;
        const double tp = perf_.stepCost(prefill_only).seconds;
        const double td = perf_.stepCost(decode_only).seconds;
        const double total = tp + td;
        if (total > 0) {
            prefill_share = cost.seconds * (tp / total);
            decode_share = cost.seconds * (td / total);
            stats_.prefillSeconds += prefill_share;
            stats_.decodeSeconds += decode_share;
        }
    }

    // Energy: compute-bound steps draw prefill power, memory-bound
    // steps decode power, across all GPUs of the node.
    const double power = (cost.computeBound()
                              ? config_.node.gpu.prefillPower
                              : config_.node.gpu.decodePower) *
                         config_.node.numGpus;
    stats_.busyJoules += power * cost.seconds;

    const double step_wall =
        cost.seconds + plan.extraSeconds + plan.stallSeconds;

    // Advance prefills; a completed prompt emits its first token.
    for (const auto &part : plan.prefills) {
        const ReqPtr &req = part.req;
        if (req->finished || req->exported || req->owner != this)
            continue; // cancelled/expired/migrated mid-step
        req->prefillSecondsAcc += cost.seconds;
        req->flopsAcc += perf_.prefillFlops(part.tokens,
                                            req->prefillDone);

        // Ledger: this chunk's token-weighted share of the step's
        // prefill time, with the part re-prefilling preempted work
        // also flagged as waste.
        if (cost.prefillTokens > 0) {
            const double attributed =
                prefill_share * static_cast<double>(part.tokens) /
                static_cast<double>(cost.prefillTokens);
            req->ledger.prefillGpuSeconds += attributed;
            req->ledger.energyJoules += power * attributed;
            const std::int64_t redone =
                std::max<std::int64_t>(
                    0, std::min(req->prefillDone + part.tokens,
                                req->recomputeWatermark) -
                           req->prefillDone);
            if (redone > 0) {
                const double wasted =
                    attributed * static_cast<double>(redone) /
                    static_cast<double>(part.tokens);
                req->ledger.wastedGpuSeconds += wasted;
                stats_.wastedSeconds += wasted;
            }
        }
        req->prefillDone += part.tokens;
        const auto prompt_len = req->prompt.size();
        if (req->prefillDone == prompt_len) {
            const kv::TokenId tok = genToken(*req);
            if (!blocks_.appendToken(req->id, tok)) {
                AGENTSIM_WARN("append failed at prefill completion; "
                              "truncating request %llu",
                              static_cast<unsigned long long>(req->id));
                req->truncated = true;
                finishRequest(req);
                continue;
            }
            req->output.push_back(tok);
            req->decoding = true;
            tracePhaseEnd(*req); // prefill
            tracePhaseBegin(*req, "decode", telemetry::SpanKind::Decode);
            if (req->firstTokenTick < 0) {
                req->firstTokenTick = sim_.now();
                if (slo_ != nullptr) {
                    slo_->observe(
                        telemetry::SloMetric::Ttft, sim_.now(),
                        sim::toSeconds(sim_.now() - req->submitTick));
                }
            }
            if (static_cast<std::int64_t>(req->output.size()) >=
                req->maxNewTokens) {
                finishRequest(req);
            }
        }
    }

    // Decoders each produced one token.
    const std::size_t planned_decoders = plan.work.decodeContexts.size();
    for (const auto &req : plan.decoders) {
        if (req->finished || req->exported || req->owner != this ||
            !req->decoding) {
            continue; // finished, cancelled or migrated meanwhile
        }
        req->decodeSecondsAcc += cost.seconds;
        req->flopsAcc += perf_.decodeFlops(blocks_.seqTokens(req->id));
        if (planned_decoders > 0) {
            // Ledger: an equal share of the step's decode time per
            // decoded token (every decoder produced exactly one).
            const double attributed =
                decode_share / static_cast<double>(planned_decoders);
            req->ledger.decodeGpuSeconds += attributed;
            req->ledger.energyJoules += power * attributed;
        }
        if (slo_ != nullptr) {
            slo_->observe(telemetry::SloMetric::Tbt, sim_.now(),
                          step_wall);
        }
        const kv::TokenId tok = genToken(*req);
        const bool ok = blocks_.appendToken(req->id, tok);
        AGENTSIM_ASSERT(ok, "decode append failed despite reservation");
        req->output.push_back(tok);
        if (static_cast<std::int64_t>(req->output.size()) >=
            req->maxNewTokens) {
            finishRequest(req);
        }
    }

    // Settle KV occupancy for the survivors at their (possibly grown)
    // block counts; finished requests settled when released.
    for (const auto &req : running_)
        chargeKv(*req);

    updateGauges();

    // Telemetry: one iteration sample (strided ring write) plus, when
    // a trace sink is attached, the engine-track span and counters.
    {
        telemetry::IterationSample s;
        s.tick = sim_.now();
        s.step = stats_.steps;
        s.running = static_cast<std::int32_t>(running_.size());
        s.waiting = static_cast<std::int32_t>(waiting_.size());
        s.prefillTokens = cost.prefillTokens;
        s.decodeTokens = cost.decodeTokens;
        s.kvBlocksUsed = blocks_.blocksInUse();
        s.kvBlocksFree = blocks_.blocksFree();
        s.prefixHitRate = blocks_.stats().hitRate();
        s.preemptions = stats_.preemptions;
        s.evictions = blocks_.stats().evictions;
        s.stepSeconds =
            cost.seconds + plan.extraSeconds + plan.stallSeconds;
        sampler_.record(s);

        if (trace_ != nullptr) {
            trace_->complete(
                telemetry::TracePid::kEngine, 1, "step", "engine",
                step_start, sim_.now(),
                sim::strfmt("\"prefill_tokens\":%lld,"
                            "\"decode_tokens\":%lld,\"running\":%d,"
                            "\"waiting\":%d",
                            static_cast<long long>(cost.prefillTokens),
                            static_cast<long long>(cost.decodeTokens),
                            s.running, s.waiting));
            trace_->counter(
                telemetry::TracePid::kEngine, "kv_blocks", sim_.now(),
                sim::strfmt("\"used\":%lld,\"free\":%lld",
                            static_cast<long long>(s.kvBlocksUsed),
                            static_cast<long long>(s.kvBlocksFree)));
            trace_->counter(
                telemetry::TracePid::kEngine, "batch", sim_.now(),
                sim::strfmt("\"running\":%d,\"waiting\":%d", s.running,
                            s.waiting));
        }
    }
}

std::deque<LlmEngine::ReqPtr>::iterator
LlmEngine::nextAdmissionCandidate()
{
    AGENTSIM_ASSERT(!waiting_.empty(), "no admission candidates");
    switch (config_.schedulerPolicy) {
      case SchedulerPolicy::Fcfs:
        return waiting_.begin();
      case SchedulerPolicy::ShortestPromptFirst: {
          auto best = waiting_.begin();
          for (auto it = waiting_.begin(); it != waiting_.end();
               ++it) {
              if ((*it)->prompt.size() < (*best)->prompt.size())
                  best = it;
          }
          return best;
      }
      case SchedulerPolicy::LeastAttainedService: {
          auto service = [&](const ReqPtr &req) {
              auto it = sessionService_.find(req->sessionId);
              return it == sessionService_.end() ? 0.0 : it->second;
          };
          auto best = waiting_.begin();
          for (auto it = waiting_.begin(); it != waiting_.end();
               ++it) {
              if (service(*it) < service(*best))
                  best = it;
          }
          return best;
      }
    }
    AGENTSIM_PANIC("unknown scheduler policy");
}

void
LlmEngine::exportMetrics(telemetry::MetricsRegistry &registry) const
{
    const sim::Tick now = sim_.now();
    auto set_counter = [&](const char *name, const char *help,
                           double value) {
        registry.counter(name, help).set(value);
    };
    auto set_gauge = [&](const char *name, const char *help,
                         double value) {
        registry.gauge(name, help).set(now, value);
    };

    set_counter("agentsim_requests_submitted_total",
                "Generation requests submitted to the engine",
                static_cast<double>(stats_.requestsSubmitted));
    set_counter("agentsim_requests_completed_total",
                "Generation requests completed",
                static_cast<double>(stats_.requestsCompleted));
    set_counter("agentsim_requests_failed_total",
                "Requests rejected or failed (context window, KV pool)",
                static_cast<double>(stats_.requestsFailed));
    set_counter("agentsim_requests_cancelled_total",
                "Requests cancelled (client cancel or node crash)",
                static_cast<double>(stats_.requestsCancelled));
    set_counter("agentsim_requests_timed_out_total",
                "Requests cancelled by deadline expiry",
                static_cast<double>(stats_.requestsTimedOut));
    set_counter("agentsim_requests_shed_total",
                "Requests rejected by queue-depth load shedding",
                static_cast<double>(stats_.requestsShed));
    set_counter("agentsim_node_crashes_total",
                "Simulated node crashes",
                static_cast<double>(stats_.crashes));
    set_counter("agentsim_resilience_drains_total",
                "Graceful drains completed by this engine",
                static_cast<double>(stats_.drains));
    set_counter("agentsim_resilience_migrations_out_total",
                "Requests exported by live migration",
                static_cast<double>(stats_.requestsMigratedOut));
    set_counter("agentsim_resilience_migrations_in_total",
                "Requests imported by live migration",
                static_cast<double>(stats_.requestsMigratedIn));
    set_counter("agentsim_resilience_migration_fallbacks_total",
                "Imports that fell back to recompute (pool full)",
                static_cast<double>(stats_.migrationFallbacks));
    set_counter("agentsim_resilience_migration_seconds_total",
                "Interconnect+PCIe seconds moving migrated KV in",
                stats_.migrationSeconds);
    set_counter("agentsim_resilience_lost_prefill_seconds_total",
                "Prefill GPU-s discarded by node-failure cancels",
                stats_.lostPrefillSeconds);
    set_counter("agentsim_preemptions_total",
                "Recompute preemptions under memory pressure",
                static_cast<double>(stats_.preemptions));
    set_counter("agentsim_engine_steps_total",
                "Continuous-batching engine iterations",
                static_cast<double>(stats_.steps));
    set_counter("agentsim_prefill_tokens_total",
                "Prompt tokens prefilled",
                static_cast<double>(stats_.prefillTokens));
    set_counter("agentsim_decode_tokens_total",
                "Output tokens decoded",
                static_cast<double>(stats_.decodeTokens));
    set_counter("agentsim_gpu_busy_seconds_total",
                "Wall-clock seconds the GPU executed steps",
                stats_.busySeconds);
    set_counter("agentsim_kv_transfer_seconds_total",
                "Host->GPU PCIe seconds restoring spilled KV",
                stats_.transferSeconds);
    set_counter("agentsim_engine_stall_seconds_total",
                "Injected engine-stall seconds (fault injection)",
                stats_.stallSeconds);
    set_counter("agentsim_gpu_core_active_seconds_total",
                "Roofline estimate of SM-active seconds",
                stats_.coreActiveSeconds);
    set_counter("agentsim_gpu_prefill_seconds_total",
                "Busy seconds attributed to prefill work",
                stats_.prefillSeconds);
    set_counter("agentsim_gpu_decode_seconds_total",
                "Busy seconds attributed to decode work",
                stats_.decodeSeconds);
    set_counter("agentsim_gpu_energy_joules_total",
                "Node GPU energy including idle draw",
                energyJoules(now));
    set_counter("agentsim_model_flops_total",
                "FLOPs executed by the engine",
                stats_.totalFlops);
    set_counter("agentsim_cost_wasted_gpu_seconds_total",
                "GPU seconds re-prefilling preempted (discarded) work",
                stats_.wastedSeconds);
    set_counter("agentsim_cost_saved_prefill_seconds_total",
                "Estimated prefill seconds avoided by prefix caching",
                stats_.savedPrefillSeconds);
    set_counter("agentsim_cost_kv_block_seconds_total",
                "KV occupancy integral (blocks held x seconds held)",
                stats_.kvBlockSeconds);

    const kv::CacheStats &cache = blocks_.stats();
    set_counter("agentsim_kv_lookup_tokens_total",
                "Prompt tokens looked up in the prefix cache",
                static_cast<double>(cache.lookupTokens));
    set_counter("agentsim_kv_hit_tokens_total",
                "Prompt tokens served from the prefix cache",
                static_cast<double>(cache.hitTokens));
    set_counter("agentsim_kv_restored_tokens_total",
                "Tokens restored from the KV spill tiers",
                static_cast<double>(cache.restoredTokens));
    set_counter("agentsim_kv_evictions_total",
                "Cached blocks evicted",
                static_cast<double>(cache.evictions));

    auto tier_counters = [&](const char *tier, const kv::TierStats &t,
                             std::int64_t resident,
                             std::int64_t capacity) {
        auto name = [&](const char *suffix) {
            return sim::strfmt("agentsim_kv_tier_%s_%s", tier, suffix);
        };
        registry
            .counter(name("demotions_total"),
                     "Blocks admitted into this KV spill tier")
            .set(static_cast<double>(t.demotedBlocks));
        registry
            .counter(name("rejects_total"),
                     "Demotion candidates skipped by probabilistic "
                     "admission")
            .set(static_cast<double>(t.rejectedBlocks));
        registry
            .counter(name("evictions_total"),
                     "Blocks pushed out of this tier by its capacity")
            .set(static_cast<double>(t.evictedBlocks));
        registry
            .counter(name("restored_tokens_total"),
                     "Tokens restored from this tier back to HBM")
            .set(static_cast<double>(t.restoredTokens));
        registry.gauge(name("blocks"), "Blocks resident in this tier")
            .set(now, static_cast<double>(resident));
        registry
            .gauge(name("capacity_blocks"),
                   "Configured tier capacity in blocks")
            .set(now, static_cast<double>(capacity));
    };
    tier_counters("dram", cache.dram, blocks_.hostCachedBlocks(),
                  blocks_.tierCapacity(kv::Tier::Dram));
    tier_counters("nvme", cache.nvme, blocks_.nvmeCachedBlocks(),
                  blocks_.tierCapacity(kv::Tier::Nvme));
    set_counter("agentsim_kv_park_chains_total",
                "Chains demoted by tool-call-aware parking",
                static_cast<double>(stats_.parkedChains));
    set_counter("agentsim_kv_park_blocks_total",
                "Blocks demoted by tool-call-aware parking",
                static_cast<double>(stats_.parkedBlocks));
    set_counter("agentsim_kv_park_prefetched_blocks_total",
                "Blocks promoted back by the pre-wake prefetch",
                static_cast<double>(stats_.prefetchedBlocks));
    set_counter("agentsim_kv_park_demote_seconds_total",
                "Background PCIe seconds writing parked chains out",
                stats_.parkDemoteSeconds);
    set_counter("agentsim_kv_park_restore_seconds_total",
                "Background seconds prefetching parked chains back",
                stats_.parkRestoreSeconds);

    set_gauge("agentsim_kv_blocks_used",
              "KV blocks pinned by live sequences",
              static_cast<double>(blocks_.blocksInUse()));
    set_gauge("agentsim_kv_blocks_free",
              "KV blocks free or evictable",
              static_cast<double>(blocks_.blocksFree()));
    set_gauge("agentsim_kv_blocks_total", "KV pool size in blocks",
              static_cast<double>(blocks_.totalBlocks()));
    set_gauge("agentsim_kv_prefix_hit_rate",
              "Cumulative prefix-cache token hit rate",
              cache.hitRate());
    set_gauge("agentsim_batch_running",
              "Sequences in the running batch",
              static_cast<double>(running_.size()));
    set_gauge("agentsim_queue_depth",
              "Requests waiting for admission",
              static_cast<double>(waiting_.size()));
}

void
LlmEngine::updateGauges()
{
    kvUsed_.set(sim_.now(), static_cast<double>(blocks_.usedBlocks()));
    batchSize_.set(sim_.now(), static_cast<double>(running_.size()));
}

} // namespace agentsim::serving
