#include "serving/engine.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace agentsim::serving
{

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

double
LlmEngine::settleKv(Req &req, std::int64_t blocks)
{
    const sim::Tick now = sim_.now();
    double charge = 0.0;
    if (req.heldBlocks > 0 && now > req.kvMarkTick) {
        charge = static_cast<double>(req.heldBlocks) *
                 sim::toSeconds(now - req.kvMarkTick);
        req.ledger.kvBlockSeconds += charge;
    }
    req.kvMarkTick = now;
    req.heldBlocks = blocks;
    return charge;
}

void
LlmEngine::chargeKv(Req &req)
{
    // Adding a zero charge leaves the (non-negative) sum's bits alone.
    stats_.kvBlockSeconds += settleKv(req, blocks_.liveSeqBlocks(req.seq));
}

void
LlmEngine::joinBatch(const Req &req)
{
    running_.push_back({handleOf(req), req.seq, blocks_.seqTokens(req.seq),
                        blocks_.liveSeqBlocks(req.seq), -1, req.decoding});
}

void
LlmEngine::leaveBatch(ReqHandle h)
{
    std::erase_if(running_, [h](const Running &r) { return r.req == h; });
}

void
LlmEngine::checkInvariants() const
{
    blocks_.checkInvariants();
    for (const Running &r : running_) {
        AGENTSIM_ASSERT(r.tokens == blocks_.seqTokens(r.seq) &&
                            r.blocks == blocks_.liveSeqBlocks(r.seq),
                        "running request (slot %d) counts %lld tokens in "
                        "%lld blocks; its sequence holds %lld in %lld",
                        r.req.slot, static_cast<long long>(r.tokens),
                        static_cast<long long>(r.blocks),
                        static_cast<long long>(blocks_.seqTokens(r.seq)),
                        static_cast<long long>(
                            blocks_.liveSeqBlocks(r.seq)));
    }
}

LlmEngine::ReqHandle
LlmEngine::claimReq()
{
    std::int32_t slot;
    if (!freeReqSlots_.empty()) {
        slot = freeReqSlots_.back();
        freeReqSlots_.pop_back();
        reqs_[static_cast<std::size_t>(slot)].req = Req(sim_);
    } else {
        slot = static_cast<std::int32_t>(reqs_.size());
        reqs_.emplace_back(sim_);
        deadlines_.reserveIds(reqs_.size());
    }
    ReqSlot &s = reqs_[static_cast<std::size_t>(slot)];
    s.req.slot = slot;
    return {slot, s.gen};
}

LlmEngine::Req &
LlmEngine::adoptReq(const std::shared_ptr<void> &state)
{
    const ReqHandle h = claimReq();
    Req &req = reqs_[static_cast<std::size_t>(h.slot)].req;
    req = std::move(*std::static_pointer_cast<Req>(state));
    req.slot = h.slot;
    return req;
}

std::uint64_t
LlmEngine::deadlineKey(sim::Tick tick, std::int32_t slot)
{
    // 40 bits of microseconds (12.7 simulated days) over 24 of slot.
    AGENTSIM_ASSERT(tick >= 0 && tick < (sim::Tick{1} << 40) && slot >= 0 &&
                        slot < (1 << kDeadlineSlotBits),
                    "deadline tick %lld or slot %d out of key range",
                    static_cast<long long>(tick), slot);
    return (static_cast<std::uint64_t>(tick) << kDeadlineSlotBits) |
           static_cast<std::uint64_t>(slot);
}

void
LlmEngine::retireReq(Req &req)
{
    AGENTSIM_ASSERT(req.slot >= 0, "retire of a request outside the slab");
    if (deadlines_.contains(req.slot))
        deadlines_.erase(req.slot);
    ++reqs_[static_cast<std::size_t>(req.slot)].gen;
    freeReqSlots_.push_back(req.slot);
    req.slot = -1;
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
LlmEngine::tracePhaseBegin(Req &req, telemetry::TraceName phase,
                           telemetry::SpanKind kind)
{
    req.tracePhase = phase;
    req.tracePhaseStart = sim_.now();
    req.phaseSpan = {};
    if (spans_ != nullptr && req.parentSpan.valid()) {
        req.phaseSpan = spans_->child(req.parentSpan, kind,
                                      telemetry::traceNameText(phase),
                                      sim_.now());
    }
}

void
LlmEngine::nameRequestLane(std::uint64_t id)
{
    if (trace_ == nullptr)
        return;
    trace_->threadName(telemetry::TracePid::kRequests, id, [id] {
        return sim::strfmt("req %llu", static_cast<unsigned long long>(id));
    });
}

void
LlmEngine::tracePhaseEnd(Req &req)
{
    if (!req.tracePhase)
        return;
    if (trace_ != nullptr) {
        trace_->complete(telemetry::TracePid::kRequests, req.id,
                         *req.tracePhase, "request",
                         req.tracePhaseStart, sim_.now());
    }
    if (spans_ != nullptr && req.phaseSpan.valid())
        spans_->end(req.phaseSpan, sim_.now());
    req.phaseSpan = {};
    req.tracePhase.reset();
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

    const ReqHandle handle = claimReq();
    Req &req = reqAt(handle);
    req.owner = this;
    req.id = nextId_++;
    req.sessionId = request.sessionId;
    req.prompt = std::move(request.prompt);
    req.maxNewTokens = request.maxNewTokens;
    req.parkSeconds = request.expectedParkSeconds;
    req.submitTick = sim_.now();
    req.firstPromptLen = req.prompt.size();
    // The output stream is fixed here and travels with the request
    // through preemption and migration.
    req.output = request.continues
                     ? kv::TokenRun{request.continues->stream,
                                    request.continues->end(), 0}
                     : kv::TokenRun{sim::hashCombine(config_.seed,
                                                     req.id ^ 0xa5a5a5a5u),
                                    0, 0};
    if (request.deadlineSeconds > 0) {
        req.deadlineTick =
            sim_.now() + sim::fromSeconds(request.deadlineSeconds);
        deadlines_.push(handle.slot,
                        deadlineKey(req.deadlineTick, handle.slot));
    }
    if (handle_out != nullptr)
        *handle_out = req.id;

    req.parentSpan = request.parentSpan;
    req.queuedSince = sim_.now();
    waiting_.push_back(handle);
    nameRequestLane(req.id);
    tracePhaseBegin(req, telemetry::TraceName::Queued,
                    telemetry::SpanKind::Queue);
    if (wake_ && !wake_->ready())
        wake_->set(1);

    // The local copy holds the completion's shared state, so the slot
    // may be freed (and the slab moved) while this frame is suspended.
    // This frame is the completion's only consumer, so it moves the
    // result out instead of copying it.
    sim::Completion<GenResult> done = req.done;
    co_await done;
    co_return done.take();
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
        plan.decodeFlops.resize(plan.work.decodeContexts.size());
        const llm::StepCost cost =
            perf_.stepCost(plan.work, plan.decodeFlops);
        const sim::Tick step_start = sim_.now();
        co_await sim::delay(
            sim_, sim::fromSeconds(cost.seconds + plan.extraSeconds +
                                   plan.stallSeconds));
        commitStep(plan, cost, step_start);
    }
}

void
LlmEngine::preempt(Req &victim)
{
    leaveBatch(handleOf(victim));

    // Settle the occupancy charge and remember how much KV is being
    // thrown away: re-prefilling below this watermark is pure waste.
    chargeKv(victim);
    victim.recomputeWatermark = blocks_.seqTokens(victim.seq);
    blocks_.release(victim.seq);
    victim.seq = {};
    victim.heldBlocks = 0;
    // Recompute-style preemption: generated tokens fold into the
    // prompt; on re-admission the prefix cache usually restores them.
    victim.prompt.append(victim.output);
    victim.prefillDone = 0;
    victim.decoding = false;
    ++victim.preemptions;
    ++stats_.preemptions;
    tracePhaseEnd(victim);
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, victim.id,
                        "preempt", "request", sim_.now());
    }
    if (spans_ != nullptr && victim.parentSpan.valid()) {
        auto marker =
            spans_->child(victim.parentSpan, telemetry::SpanKind::Preempt,
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
LlmEngine::requeueRequest(Req &req, bool front)
{
    tracePhaseBegin(req, telemetry::TraceName::Queued,
                    telemetry::SpanKind::Queue);
    req.queuedSince = sim_.now();
    req.requeued = true;
    ++requeuedInWaiting_;
    if (front)
        waiting_.push_front(handleOf(req));
    else
        waiting_.push_back(handleOf(req));
}

void
LlmEngine::failRequest(Req &req)
{
    ++stats_.requestsFailed;
    AGENTSIM_WARN("request %llu cannot fit in the KV pool; failing",
                  static_cast<unsigned long long>(req.id));
    req.finished = true;
    req.decoding = false;
    chargeQueue(req);
    tracePhaseEnd(req);
    sloFailure(req);
    GenResult r;
    r.failed = true;
    r.promptTokens = req.firstPromptLen;
    r.submitTick = req.submitTick;
    r.finishTick = sim_.now();
    r.totalSeconds = sim::toSeconds(r.finishTick - r.submitTick);
    r.ledger = req.ledger;
    req.done.set(std::move(r));
    retireReq(req);
}

void
LlmEngine::finishRequest(Req &req)
{
    chargeKv(req);
    blocks_.release(req.seq);
    req.seq = {};
    req.heldBlocks = 0;
    leaveBatch(handleOf(req));
    req.finished = true;
    req.decoding = false;
    tracePhaseEnd(req);
    ++stats_.requestsCompleted;
    if (config_.schedulerPolicy == SchedulerPolicy::LeastAttainedService) {
        sessionService_[req.sessionId] +=
            req.prefillSecondsAcc + req.decodeSecondsAcc;
    }
    maybeParkChain(req);

    GenResult r;
    r.output = req.output;
    r.truncated = req.truncated;
    r.promptTokens = req.firstPromptLen;
    r.cachedPromptTokens = req.cachedPromptTokens;
    r.queueSeconds =
        sim::toSeconds(req.firstScheduleTick - req.submitTick);
    r.prefillSeconds = req.prefillSecondsAcc;
    r.decodeSeconds = req.decodeSecondsAcc;
    r.transferSeconds = req.transferSecondsAcc;
    r.flops = req.flopsAcc;
    r.preemptions = req.preemptions;
    r.submitTick = req.submitTick;
    r.finishTick = sim_.now();
    r.totalSeconds = sim::toSeconds(r.finishTick - r.submitTick);
    if (req.firstTokenTick >= 0) {
        r.ttftSeconds =
            sim::toSeconds(req.firstTokenTick - req.submitTick);
    }
    r.ledger = req.ledger;
    if (slo_ != nullptr) {
        slo_->observe(telemetry::SloMetric::E2e, sim_.now(),
                      r.totalSeconds);
    }
    req.done.set(std::move(r));
    retireReq(req);
}

void
LlmEngine::maybeParkChain(const Req &req)
{
    if (req.parkSeconds <= 0.0 || !config_.enablePrefixCaching ||
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
    kv::TokenChain chain = req.prompt;
    chain.append(req.output);
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
        trace_->instant(telemetry::TracePid::kRequests, req.id,
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
        demote_seconds, req.parkSeconds - restore_estimate);
    const std::uint64_t trace_id = req.id;
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
LlmEngine::cancelRequest(Req &req, CancelCause cause)
{
    AGENTSIM_ASSERT(!req.finished, "cancel of a finished request");
    chargeKv(req);
    if (blocks_.hasSeq(req.seq))
        blocks_.release(req.seq);
    req.seq = {};
    req.heldBlocks = 0;
    chargeQueue(req);
    const ReqHandle handle = handleOf(req);
    leaveBatch(handle);
    if (auto it = std::find(waiting_.begin(), waiting_.end(), handle);
        it != waiting_.end()) {
        noteLeftWaiting(req);
        waiting_.erase(it);
    }
    req.finished = true;
    req.decoding = false;
    tracePhaseEnd(req);

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
        stats_.lostPrefillSeconds += req.ledger.prefillGpuSeconds;
        break;
    }
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req.id, label,
                        "request", sim_.now());
    }

    // Partial output and accrued accounting still reach the caller.
    r.output = req.output;
    r.promptTokens = req.firstPromptLen;
    r.cachedPromptTokens = req.cachedPromptTokens;
    if (req.firstScheduleTick >= 0) {
        r.queueSeconds =
            sim::toSeconds(req.firstScheduleTick - req.submitTick);
    }
    r.prefillSeconds = req.prefillSecondsAcc;
    r.decodeSeconds = req.decodeSecondsAcc;
    r.transferSeconds = req.transferSecondsAcc;
    r.flops = req.flopsAcc;
    r.preemptions = req.preemptions;
    r.submitTick = req.submitTick;
    r.finishTick = sim_.now();
    r.totalSeconds = sim::toSeconds(r.finishTick - r.submitTick);
    if (req.firstTokenTick >= 0) {
        r.ttftSeconds =
            sim::toSeconds(req.firstTokenTick - req.submitTick);
    }
    r.ledger = req.ledger;
    sloFailure(req);
    req.done.set(std::move(r));
    retireReq(req);
}

bool
LlmEngine::cancel(std::uint64_t request_id)
{
    Req *req = findQueued(request_id);
    if (req == nullptr)
        return false;
    cancelRequest(*req, CancelCause::Client);
    updateGauges();
    return true;
}

LlmEngine::Req *
LlmEngine::findQueued(std::uint64_t id)
{
    auto named = [&](ReqHandle h) -> Req * {
        Req &r = reqAt(h);
        return r.id == id && !r.finished ? &r : nullptr;
    };
    for (const ReqHandle h : waiting_) {
        if (Req *r = named(h))
            return r;
    }
    for (const Running &b : running_) {
        if (Req *r = named(b.req))
            return r;
    }
    return nullptr;
}

void
LlmEngine::expireDeadlines()
{
    const sim::Tick now = sim_.now();
    if (deadlines_.size() == 0 || now < earliestDeadline())
        return;
    // Something expired: cancel in queue order, not deadline order.
    std::vector<ReqHandle> expired;
    auto collect = [&](ReqHandle h) {
        const Req &req = reqAt(h);
        if (!req.finished && req.deadlineTick >= 0 &&
            now >= req.deadlineTick) {
            expired.push_back(h);
        }
    };
    for (const ReqHandle h : waiting_)
        collect(h);
    for (const Running &r : running_)
        collect(r.req);
    for (const ReqHandle h : expired)
        cancelRequest(reqAt(h), CancelCause::Deadline);
    AGENTSIM_ASSERT(deadlines_.size() == 0 || now < earliestDeadline(),
                    "an expired deadline outlived its request's queues");
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

    std::vector<ReqHandle> victims(waiting_.begin(), waiting_.end());
    for (const Running &r : running_)
        victims.push_back(r.req);
    for (const ReqHandle h : victims)
        cancelRequest(reqAt(h), CancelCause::NodeFailure);
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
    std::vector<ReqHandle> leftovers(waiting_.begin(), waiting_.end());
    for (const Running &r : running_)
        leftovers.push_back(r.req);
    for (const ReqHandle h : leftovers) {
        Req &req = reqAt(h);
        if (export_leftovers) {
            auto migrated = exportRequest(req.id);
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
    Req *found = findQueued(id);
    if (found == nullptr)
        return std::nullopt;
    Req &req = *found;

    chargeKv(req);
    chargeQueue(req);

    MigratedRequest out;
    if (blocks_.hasSeq(req.seq)) {
        out.chain = blocks_.exportChain(req.seq);
        // KV exists only for the prefilled part of the prompt plus
        // every generated token; trailing prompt blocks are allocated
        // but not yet computed and need no transfer.
        out.computedTokens = req.prefillDone + req.output.count;
        blocks_.release(req.seq);
        req.seq = {};
        req.heldBlocks = 0;
    } else {
        // Still queued: nothing computed, the snapshot is just the
        // request state; the target admits it like a fresh arrival.
        out.chain = req.prompt;
        out.computedTokens = 0;
    }

    const ReqHandle handle = handleOf(req);
    leaveBatch(handle);
    if (auto it = std::find(waiting_.begin(), waiting_.end(), handle);
        it != waiting_.end()) {
        noteLeftWaiting(req);
        waiting_.erase(it);
    }
    req.exported = true;
    req.owner = nullptr;
    tracePhaseEnd(req);
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req.id,
                        "migrate_out", "request", sim_.now());
    }
    ++stats_.requestsMigratedOut;
    updateGauges();
    // Leaving the slab outdates the in-flight step's entries for it,
    // even if a same-tick request reclaims the slot.
    retireReq(req);
    out.state = std::make_shared<Req>(std::move(req));
    return out;
}

void
LlmEngine::importRequest(MigratedRequest migrated,
                         double interconnect_bandwidth)
{
    AGENTSIM_ASSERT(migrated.valid(), "import of an empty migration");
    AGENTSIM_ASSERT(interconnect_bandwidth > 0,
                    "import needs a positive interconnect bandwidth");
    const Req &in_flight = *std::static_pointer_cast<Req>(migrated.state);
    AGENTSIM_ASSERT(in_flight.exported && !in_flight.finished,
                    "import of a request that is not in flight");
    AGENTSIM_ASSERT(accepting(), "import into a non-accepting engine");

    Req &req = adoptReq(migrated.state);
    req.owner = this;
    req.id = nextId_++;
    ++stats_.requestsMigratedIn;
    nameRequestLane(req.id);

    // Try to land the KV chain now; the blocks are reserved while the
    // transfer is in flight (the realistic order — the target commits
    // memory before the wire copy starts).
    double transfer_seconds = 0.0;
    bool warm = false;
    if (migrated.computedTokens > 0) {
        auto alloc = blocks_.importChain(req.id, migrated.chain);
        if (alloc.has_value()) {
            warm = true;
            req.seq = alloc->seq;
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
            req.transferSecondsAcc += transfer_seconds;
            req.ledger.transferSeconds += transfer_seconds;
            stats_.migrationSeconds += transfer_seconds;
            // Open the occupancy interval at the reserved chain size.
            req.kvMarkTick = sim_.now();
            req.heldBlocks =
                blocks_.blocksNeeded(blocks_.seqTokens(req.seq));
        } else {
            ++stats_.migrationFallbacks;
        }
    }
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kRequests, req.id,
                        warm ? "migrate_in" : "migrate_in_cold",
                        "request", sim_.now());
    }
    if (transfer_seconds > 0.0 && spans_ != nullptr &&
        req.parentSpan.valid()) {
        auto transfer = spans_->child(req.parentSpan,
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
    // Only the queues' owners free slots, so the handle outlives the
    // transfer even if the node crashes meanwhile.
    sim_.schedule(
        sim::fromSeconds(transfer_seconds),
        [this, handle = handleOf(req), chain = std::move(migrated.chain),
         computed = migrated.computedTokens]() mutable {
            activateImported(reqAt(handle), std::move(chain), computed);
        });
}

void
LlmEngine::activateImported(Req &req, kv::TokenChain chain,
                            std::int64_t computed_tokens)
{
    AGENTSIM_ASSERT(!req.finished, "activation of a finished import");
    req.exported = false;

    // The node may have crashed (losing the reserved chain) or begun
    // draining again while the transfer was in flight; cancelRequest
    // releases the chain if it survived.
    if (!accepting()) {
        cancelRequest(req, CancelCause::NodeFailure);
        return;
    }
    if (req.deadlineTick >= 0) {
        if (sim_.now() >= req.deadlineTick) {
            cancelRequest(req, CancelCause::Deadline);
            return;
        }
        // The deadline tick travels with the request.
        deadlines_.push(req.slot, deadlineKey(req.deadlineTick, req.slot));
    }

    if (blocks_.hasSeq(req.seq)) {
        // Warm landing: the chain survived; resume decode (or chunked
        // prefill) exactly where the source left off — from the next
        // step on, as a step in flight gives it nothing.
        joinBatch(req);
        chargeKv(req);
        tracePhaseBegin(req,
                        req.decoding ? telemetry::TraceName::Decode
                                     : telemetry::TraceName::Prefill,
                        req.decoding ? telemetry::SpanKind::Decode
                                     : telemetry::SpanKind::Prefill);
    } else {
        // Cold landing: recompute-preemption semantics. Generated
        // tokens fold into the prompt (the chain snapshot is exactly
        // that folded form) and re-prefilling below the old watermark
        // is charged as waste.
        if (!chain.empty())
            req.prompt = std::move(chain);
        req.recomputeWatermark =
            std::max(req.recomputeWatermark, computed_tokens);
        req.prefillDone = 0;
        req.decoding = false;
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
    const Req &in_flight = *std::static_pointer_cast<Req>(migrated.state);
    AGENTSIM_ASSERT(in_flight.exported && !in_flight.finished,
                    "abort of a request that is not in flight");
    // Not in any queue and holding no blocks: resolve the awaiter
    // directly with crash semantics so the client retries. Back in
    // the slab only for the cancel, which frees the slot again.
    Req &req = adoptReq(migrated.state);
    req.exported = false;
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

std::int64_t
LlmEngine::preloadPrefix(const kv::TokenChain &prefix)
{
    const std::int64_t populated = blocks_.preloadPrefix(prefix);
    updateGauges();
    return populated;
}

std::int64_t
LlmEngine::collectRunning(StepPlan &plan)
{
    plan.work.decodeContexts.clear();
    plan.prefilling.clear();
    const int bs = config_.blockSize;
    std::int64_t boundary_crossings = 0;
    for (Running &r : running_) {
        if (!r.decoding) {
            r.decodeIndex = -1;
            plan.prefilling.push_back(r.req);
            continue;
        }
        r.decodeIndex =
            static_cast<std::int32_t>(plan.work.decodeContexts.size());
        plan.work.decodeContexts.push_back(r.tokens);
        // A full last block: this token opens a fresh one. (Compared
        // by multiplying; a per-decoder division shows in profiles.)
        if (r.tokens == r.blocks * bs)
            ++boundary_crossings;
    }
    return boundary_crossings;
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
    std::int64_t append_need = collectRunning(plan);

    // 2. Reserve append capacity for decoders crossing a block
    //    boundary; preempt the newest request until it fits. Each
    //    preemption (rare) re-collects the smaller batch.
    while (append_need > blocks_.availableBlocks()) {
        if (running_.size() <= 1) {
            // A lone request has filled the entire pool: truncate it.
            Req &req = reqAt(running_.front().req);
            AGENTSIM_WARN("KV pool exhausted by request %llu; "
                          "truncating output",
                          static_cast<unsigned long long>(req.id));
            req.truncated = true;
            finishRequest(req);
            collectRunning(plan); // the batch is empty now
            break;
        }
        // Preempt the latest-arrived running request.
        preempt(reqAt(running_.back().req));
        append_need = collectRunning(plan);
    }

    std::int64_t budget = std::max<std::int64_t>(
        0, config_.maxBatchTokens - static_cast<std::int64_t>(
                                        plan.work.decodeContexts.size()));

    // 3. Continue chunked prefill of already-admitted requests.
    for (const ReqHandle h : plan.prefilling) {
        if (budget == 0)
            break;
        Req &req = reqAt(h);
        const auto prompt_len = req.prompt.size();
        std::int64_t chunk = std::min(budget, prompt_len - req.prefillDone);
        if (chunk <= 0)
            continue;
        // Completing a prompt that ends exactly on a block boundary
        // emits its first output token into a fresh block; defer the
        // final prompt token if no block could be available.
        const bool completes = req.prefillDone + chunk == prompt_len;
        if (completes && prompt_len % bs == 0 &&
            blocks_.availableBlocks() == 0) {
            --chunk;
        }
        if (chunk <= 0)
            continue;
        plan.prefills.push_back({h, chunk});
        plan.work.prefills.push_back({chunk, req.prefillDone});
        budget -= chunk;
    }

    // 4. Admit waiting requests while budget and memory allow, in the
    //    order the scheduler policy dictates.
    while (budget > 0 && !waiting_.empty() &&
           running_.size() < static_cast<std::size_t>(
                                 config_.maxRunningSeqs)) {
        auto candidate = nextAdmissionCandidate();
        const ReqHandle h = *candidate;
        Req &req = reqAt(h);
        const auto prompt_len = req.prompt.size();
        const std::int64_t upper_bound =
            blocks_.blocksNeeded(prompt_len) + 1;
        if (upper_bound > blocks_.totalBlocks()) {
            noteLeftWaiting(req);
            waiting_.erase(candidate);
            failRequest(req);
            continue;
        }
        if (upper_bound > blocks_.availableBlocks())
            break; // the policy's best candidate does not fit

        auto alloc = blocks_.allocatePrompt(req.id, req.prompt);
        AGENTSIM_ASSERT(alloc.has_value(),
                        "allocation failed despite capacity check");
        req.seq = alloc->seq;
        noteLeftWaiting(req);
        waiting_.erase(candidate);
        joinBatch(req);
        chargeQueue(req);
        chargeKv(req); // opens the occupancy charging interval

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
            req.transferSecondsAcc += restore_seconds;
            req.ledger.transferSeconds += restore_seconds;
        }

        req.prefillDone = alloc->reusedTokens();
        if (req.prefillDone >= prompt_len) {
            // Fully cached prompt: recompute the last token to obtain
            // logits (vLLM does the same).
            req.prefillDone = prompt_len - 1;
        }
        if (req.prefillDone > 0) {
            // Counterfactual: what the reused tokens would have cost
            // to prefill from scratch.
            const double saved = perf_.prefillSeconds(req.prefillDone, 0);
            req.ledger.savedPrefillSeconds += saved;
            stats_.savedPrefillSeconds += saved;
        }
        if (req.firstScheduleTick < 0) {
            req.firstScheduleTick = sim_.now();
            req.cachedPromptTokens = alloc->reusedTokens();
        }
        tracePhaseEnd(req); // queued
        tracePhaseBegin(req, telemetry::TraceName::Prefill,
                        telemetry::SpanKind::Prefill);
        // The restore happens inside the prefill step's wall time;
        // nesting it under the prefill span routes those seconds to
        // Migration blame while the remainder stays Prefill.
        if (restore_seconds > 0.0 && spans_ != nullptr &&
            req.phaseSpan.valid()) {
            auto restore = spans_->child(req.phaseSpan,
                                         telemetry::SpanKind::KvRestore,
                                         "kv_restore", sim_.now());
            spans_->end(restore,
                        sim_.now() + sim::fromSeconds(restore_seconds));
        }

        std::int64_t chunk = std::min(budget, prompt_len - req.prefillDone);
        const bool completes = req.prefillDone + chunk == prompt_len;
        if (completes && prompt_len % bs == 0 &&
            blocks_.availableBlocks() == 0) {
            --chunk;
        }
        if (chunk > 0) {
            plan.prefills.push_back({h, chunk});
            plan.work.prefills.push_back({chunk, req.prefillDone});
            budget -= chunk;
        }
    }

    if (plan.work.empty() && !running_.empty()) {
        // Pathological: a lone prompt fills the pool leaving no room
        // for its first output token. Finish it truncated rather than
        // spinning forever.
        Req &req = reqAt(running_.front().req);
        AGENTSIM_WARN("request %llu starved of append blocks; "
                      "truncating",
                      static_cast<unsigned long long>(req.id));
        req.truncated = true;
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
    const double tp = cost.prefillOnlySeconds;
    const double td = cost.decodeOnlySeconds;
    if (const double total = tp + td; total > 0) {
        prefill_share = cost.seconds * (tp / total);
        decode_share = cost.seconds * (td / total);
        stats_.prefillSeconds += prefill_share;
        stats_.decodeSeconds += decode_share;
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

    // A plan entry whose request finished, was cancelled or migrated
    // mid-step is stale (its slot was freed, perhaps reclaimed) or,
    // defensively, no longer this engine's to touch.
    auto planned = [this](ReqHandle h) -> Req * {
        Req *req = liveReq(h);
        if (req == nullptr || req->finished || req->exported ||
            req->owner != this) {
            return nullptr;
        }
        return req;
    };

    // Advance prefills; a completed prompt emits its first token.
    for (const auto &part : plan.prefills) {
        Req *live = planned(part.req);
        if (live == nullptr)
            continue;
        Req &req = *live;
        req.prefillSecondsAcc += cost.seconds;
        req.flopsAcc += perf_.prefillFlops(part.tokens, req.prefillDone);

        // Ledger: this chunk's token-weighted share of the step's
        // prefill time, with the part re-prefilling preempted work
        // also flagged as waste.
        if (cost.prefillTokens > 0) {
            const double attributed =
                prefill_share * static_cast<double>(part.tokens) /
                static_cast<double>(cost.prefillTokens);
            req.ledger.prefillGpuSeconds += attributed;
            req.ledger.energyJoules += power * attributed;
            const std::int64_t redone =
                std::max<std::int64_t>(
                    0, std::min(req.prefillDone + part.tokens,
                                req.recomputeWatermark) -
                           req.prefillDone);
            if (redone > 0) {
                const double wasted =
                    attributed * static_cast<double>(redone) /
                    static_cast<double>(part.tokens);
                req.ledger.wastedGpuSeconds += wasted;
                stats_.wastedSeconds += wasted;
            }
        }
        req.prefillDone += part.tokens;
        const auto prompt_len = req.prompt.size();
        if (req.prefillDone == prompt_len) {
            if (!blocks_.appendToken(req.seq, req.output.stream,
                                     req.output.end())) {
                AGENTSIM_WARN("append failed at prefill completion; "
                              "truncating request %llu",
                              static_cast<unsigned long long>(req.id));
                req.truncated = true;
                finishRequest(req);
                continue;
            }
            // It decodes from the next step on: its decodeIndex stays
            // -1, so this step's commit walk gives it no second token.
            const auto r = std::find_if(
                running_.begin(), running_.end(),
                [&](const Running &x) { return x.req == part.req; });
            AGENTSIM_ASSERT(r != running_.end(), "prefill not running");
            noteAppend(*r);
            r->decoding = true;
            ++req.output.count;
            req.decoding = true;
            tracePhaseEnd(req); // prefill
            tracePhaseBegin(req, telemetry::TraceName::Decode,
                            telemetry::SpanKind::Decode);
            if (req.firstTokenTick < 0) {
                req.firstTokenTick = sim_.now();
                if (slo_ != nullptr) {
                    slo_->observe(
                        telemetry::SloMetric::Ttft, sim_.now(),
                        sim::toSeconds(sim_.now() - req.submitTick));
                }
            }
            if (req.output.count >= req.maxNewTokens)
                finishRequest(req);
        }
    }

    // The commit walk, over the batch in admission order. Each planned
    // decoder (decodeIndex >= 0; a request that joined the batch since
    // the step was planned has none) produced one token: it takes an
    // equal share of the step's decode time, the FLOPs its decode was
    // priced at, and its append. Its context was its sequence length:
    // only its own append changes that. Every request still in the
    // batch then settles its KV occupancy at its new block count.
    // stats_.kvBlockSeconds sums the finishers' charges as they finish
    // and the survivors' after the walk, in admission order.
    const std::size_t planned_decoders = plan.work.decodeContexts.size();
    const double decode_attributed =
        planned_decoders > 0
            ? decode_share / static_cast<double>(planned_decoders)
            : 0.0;
    const double decode_energy = power * decode_attributed;
    // Every decoder of the step waited the same step_wall for its
    // token, so the SLO tracker takes them as one weighted TBT
    // observation. A finishing decoder can fire an E2E alert, so the
    // decoders before it are observed first: a TBT alert keeps its
    // place among the step's trace records and incident triggers.
    std::int64_t tbt_pending = 0;
    auto observe_tbt = [&] {
        if (slo_ != nullptr && tbt_pending > 0) {
            slo_->observe(telemetry::SloMetric::Tbt, sim_.now(),
                          step_wall, tbt_pending);
        }
        tbt_pending = 0;
    };
    kvCharges_.clear();
    for (std::size_t i = 0; i < running_.size();) {
        Running &r = running_[i];
        Req &req = reqAt(r.req);
        if (r.decodeIndex >= 0) {
            if (!blocks_.appendToken(r.seq, req.output.stream,
                                     req.output.end())) {
                // buildStep reserved this decoder a block, but a prompt
                // completing on a block boundary in the same step may
                // have taken it. The token is lost: preempt the
                // decoder, which recomputes it on re-admission.
                AGENTSIM_WARN("decode append failed; preempting request "
                              "%llu",
                              static_cast<unsigned long long>(req.id));
                preempt(req); // takes running_[i] out
                continue;
            }
            noteAppend(r);
            req.decodeSecondsAcc += cost.seconds;
            req.flopsAcc +=
                plan.decodeFlops[static_cast<std::size_t>(r.decodeIndex)];
            req.ledger.decodeGpuSeconds += decode_attributed;
            req.ledger.energyJoules += decode_energy;
            ++tbt_pending;
            if (++req.output.count >= req.maxNewTokens) {
                observe_tbt();
                finishRequest(req); // takes running_[i] out
                continue;
            }
        }
        kvCharges_.push_back(settleKv(req, r.blocks));
        ++i;
    }
    observe_tbt();
    for (const double charge : kvCharges_)
        stats_.kvBlockSeconds += charge;

    updateGauges();

    // Telemetry: the engine-track span and counters.
    if (trace_ != nullptr) {
        const int running = static_cast<int>(running_.size());
        const int waiting = static_cast<int>(waiting_.size());
        using telemetry::TraceArg;
        trace_->complete(telemetry::TracePid::kEngine, 1,
                         telemetry::TraceName::Step, "engine", step_start,
                         sim_.now(),
                         {TraceArg::integer("prefill_tokens",
                                            cost.prefillTokens),
                          TraceArg::integer("decode_tokens",
                                            cost.decodeTokens),
                          TraceArg::integer("running", running),
                          TraceArg::integer("waiting", waiting)});
        trace_->counter(telemetry::TracePid::kEngine,
                        telemetry::TraceName::KvBlocks, sim_.now(),
                        {TraceArg::integer("used", blocks_.blocksInUse()),
                         TraceArg::integer("free", blocks_.blocksFree())});
        trace_->counter(telemetry::TracePid::kEngine,
                        telemetry::TraceName::Batch, sim_.now(),
                        {TraceArg::integer("running", running),
                         TraceArg::integer("waiting", waiting)});
    }
}

std::deque<LlmEngine::ReqHandle>::iterator
LlmEngine::nextAdmissionCandidate()
{
    AGENTSIM_ASSERT(!waiting_.empty(), "no admission candidates");
    switch (config_.schedulerPolicy) {
      case SchedulerPolicy::Fcfs:
        return waiting_.begin();
      case SchedulerPolicy::ShortestPromptFirst: {
          auto prompt_len = [&](ReqHandle h) {
              return reqAt(h).prompt.size();
          };
          auto best = waiting_.begin();
          for (auto it = waiting_.begin(); it != waiting_.end();
               ++it) {
              if (prompt_len(*it) < prompt_len(*best))
                  best = it;
          }
          return best;
      }
      case SchedulerPolicy::LeastAttainedService: {
          auto service = [&](ReqHandle h) {
              auto it = sessionService_.find(reqAt(h).sessionId);
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

namespace
{

using ES = EngineStats;
constexpr telemetry::StatField<ES> kEngineRows[] = {
    {"agentsim_requests_submitted_total", &ES::requestsSubmitted,
     "Generation requests submitted to the engine"},
    {"agentsim_requests_completed_total", &ES::requestsCompleted,
     "Generation requests completed"},
    {"agentsim_requests_failed_total", &ES::requestsFailed,
     "Requests rejected or failed (context window, KV pool)"},
    {"agentsim_requests_cancelled_total", &ES::requestsCancelled,
     "Requests cancelled (client cancel or node crash)"},
    {"agentsim_requests_timed_out_total", &ES::requestsTimedOut,
     "Requests cancelled by deadline expiry"},
    {"agentsim_requests_shed_total", &ES::requestsShed,
     "Requests rejected by queue-depth load shedding"},
    {"agentsim_node_crashes_total", &ES::crashes, "Simulated node crashes"},
    {"agentsim_resilience_drains_total", &ES::drains,
     "Graceful drains completed by this engine"},
    {"agentsim_resilience_migrations_out_total", &ES::requestsMigratedOut,
     "Requests exported by live migration"},
    {"agentsim_resilience_migrations_in_total", &ES::requestsMigratedIn,
     "Requests imported by live migration"},
    {"agentsim_resilience_migration_fallbacks_total", &ES::migrationFallbacks,
     "Imports that fell back to recompute (pool full)"},
    {"agentsim_resilience_migration_seconds_total", &ES::migrationSeconds,
     "Interconnect+PCIe seconds moving migrated KV in"},
    {"agentsim_resilience_lost_prefill_seconds_total", &ES::lostPrefillSeconds,
     "Prefill GPU-s discarded by node-failure cancels"},
    {"agentsim_preemptions_total", &ES::preemptions,
     "Recompute preemptions under memory pressure"},
    {"agentsim_engine_steps_total", &ES::steps,
     "Continuous-batching engine iterations"},
    {"agentsim_prefill_tokens_total", &ES::prefillTokens,
     "Prompt tokens prefilled"},
    {"agentsim_decode_tokens_total", &ES::decodeTokens,
     "Output tokens decoded"},
    {"agentsim_gpu_busy_seconds_total", &ES::busySeconds,
     "Wall-clock seconds the GPU executed steps"},
    {"agentsim_kv_transfer_seconds_total", &ES::transferSeconds,
     "Host->GPU PCIe seconds restoring spilled KV"},
    {"agentsim_engine_stall_seconds_total", &ES::stallSeconds,
     "Injected engine-stall seconds (fault injection)"},
    {"agentsim_gpu_core_active_seconds_total", &ES::coreActiveSeconds,
     "Roofline estimate of SM-active seconds"},
    {"agentsim_gpu_prefill_seconds_total", &ES::prefillSeconds,
     "Busy seconds attributed to prefill work"},
    {"agentsim_gpu_decode_seconds_total", &ES::decodeSeconds,
     "Busy seconds attributed to decode work"},
    {"agentsim_model_flops_total", &ES::totalFlops,
     "FLOPs executed by the engine"},
    {"agentsim_cost_wasted_gpu_seconds_total", &ES::wastedSeconds,
     "GPU seconds re-prefilling preempted (discarded) work"},
    {"agentsim_cost_saved_prefill_seconds_total", &ES::savedPrefillSeconds,
     "Estimated prefill seconds avoided by prefix caching"},
    {"agentsim_cost_kv_block_seconds_total", &ES::kvBlockSeconds,
     "KV occupancy integral (blocks held x seconds held)"},
    {"agentsim_kv_park_chains_total", &ES::parkedChains,
     "Chains demoted by tool-call-aware parking"},
    {"agentsim_kv_park_blocks_total", &ES::parkedBlocks,
     "Blocks demoted by tool-call-aware parking"},
    {"agentsim_kv_park_prefetched_blocks_total", &ES::prefetchedBlocks,
     "Blocks promoted back by the pre-wake prefetch"},
    {"agentsim_kv_park_demote_seconds_total", &ES::parkDemoteSeconds,
     "Background PCIe seconds writing parked chains out"},
    {"agentsim_kv_park_restore_seconds_total", &ES::parkRestoreSeconds,
     "Background seconds prefetching parked chains back"},
    // Exported with the idle draw added, as agentsim_gpu_energy_joules.
    {nullptr, &ES::busyJoules, nullptr},
};
// Every member is 8 bytes: a member without a row changes the size.
static_assert(sizeof(ES) == std::size(kEngineRows) * 8,
              "every EngineStats member needs a row");

using CS = kv::CacheStats;
constexpr telemetry::StatField<CS> kCacheRows[] = {
    {"agentsim_kv_lookup_tokens_total", &CS::lookupTokens,
     "Prompt tokens looked up in the prefix cache"},
    {"agentsim_kv_hit_tokens_total", &CS::hitTokens,
     "Prompt tokens served from the prefix cache"},
    {"agentsim_kv_restored_tokens_total", &CS::restoredTokens,
     "Tokens restored from the KV spill tiers"},
    {"agentsim_kv_evictions_total", &CS::evictions, "Cached blocks evicted"},
    {nullptr, &CS::allocatedBlocks, nullptr},
};

using TS = kv::TierStats;
constexpr telemetry::StatField<TS> kTierRows[] = {
    {"agentsim_kv_tier_demotions_total", &TS::demotedBlocks,
     "Blocks admitted into this KV spill tier"},
    {"agentsim_kv_tier_rejects_total", &TS::rejectedBlocks,
     "Demotion candidates skipped by probabilistic admission"},
    {"agentsim_kv_tier_evictions_total", &TS::evictedBlocks,
     "Blocks pushed out of this tier by its capacity"},
    {"agentsim_kv_tier_restored_tokens_total", &TS::restoredTokens,
     "Tokens restored from this tier back to HBM"},
};
static_assert(sizeof(TS) == std::size(kTierRows) * 8,
              "every TierStats member needs a row");
static_assert(sizeof(CS) == std::size(kCacheRows) * 8 +
                                2 * sizeof(TS),
              "every CacheStats member needs a row");

} // namespace

const telemetry::StatTable<EngineStats> kEngineStatFields = kEngineRows;
const telemetry::StatTable<kv::CacheStats> kCacheStatFields = kCacheRows;
const telemetry::StatTable<kv::TierStats> kTierStatFields = kTierRows;

void
LlmEngine::exportMetrics(telemetry::MetricsRegistry &registry,
                         const telemetry::Labels &labels) const
{
    const sim::Tick now = sim_.now();
    telemetry::exportStats(registry, kEngineStatFields, stats_, labels);
    registry
        .counter("agentsim_gpu_energy_joules_total",
                 "Node GPU energy including idle draw", labels)
        .set(energyJoules(now));

    const kv::CacheStats &cache = blocks_.stats();
    telemetry::exportStats(registry, kCacheStatFields, cache, labels);
    for (const kv::Tier tier : {kv::Tier::Dram, kv::Tier::Nvme}) {
        const bool dram = tier == kv::Tier::Dram;
        telemetry::Labels tier_labels = labels;
        tier_labels.emplace_back("tier", dram ? "dram" : "nvme");
        telemetry::exportStats(registry, kTierStatFields,
                               dram ? cache.dram : cache.nvme, tier_labels);
        registry
            .gauge("agentsim_kv_tier_blocks",
                   "Blocks resident in this tier", tier_labels)
            .set(static_cast<double>(blocks_.tierBlocks(tier)));
        registry
            .gauge("agentsim_kv_tier_capacity_blocks",
                   "Configured tier capacity in blocks", tier_labels)
            .set(static_cast<double>(blocks_.tierCapacity(tier)));
    }

    auto set_gauge = [&](const char *name, const char *help,
                         double value) {
        registry.gauge(name, help, labels).set(value);
    };
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
