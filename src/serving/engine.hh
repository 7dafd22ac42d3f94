/**
 * @file
 * LlmEngine — a vLLM-style serving engine on the simulation clock.
 *
 * The engine implements iteration-level continuous batching over the
 * paged KV cache:
 *  - a FCFS waiting queue feeds a running batch;
 *  - every engine step gives each decoding sequence one token and
 *    spends the remaining per-step token budget on chunked prefill;
 *  - prompts are allocated block tables up-front, reusing prefix-cached
 *    blocks (skipping their prefill);
 *  - under memory pressure the latest-arrived running request is
 *    preempted by recompute (blocks released, request requeued with its
 *    generated tokens folded into the prompt);
 *  - step latency comes from the roofline PerfModel, making prefill
 *    compute-bound and decode memory-bound.
 *
 * Agents interact through the awaitable generate() API.
 */

#ifndef AGENTSIM_SERVING_ENGINE_HH
#define AGENTSIM_SERVING_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "kv/block_manager.hh"
#include "llm/perf_model.hh"
#include "serving/request.hh"
#include "sim/awaitable.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "stats/gauge.hh"
#include "telemetry/registry.hh"
#include "telemetry/sampler.hh"
#include "telemetry/slo.hh"
#include "telemetry/span.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::serving
{

/** Waiting-queue admission order. */
enum class SchedulerPolicy
{
    /** First come, first served (vLLM default; paper setup). */
    Fcfs,
    /** Admit the smallest waiting prompt first (SJF-style). */
    ShortestPromptFirst,
    /**
     * Program-aware least-attained-service (Autellix [23]): admit the
     * request whose session (agent rollout) has consumed the least
     * GPU service so far, keeping young programs from starving behind
     * long-running multi-call agents.
     */
    LeastAttainedService,
};

/** Engine configuration. */
struct EngineConfig
{
    llm::ModelSpec model;
    llm::NodeSpec node;

    /** Enable block-level prefix caching. */
    bool enablePrefixCaching = true;
    /** KV block size in tokens. */
    int blockSize = 16;
    /** Admission order for waiting requests. */
    SchedulerPolicy schedulerPolicy = SchedulerPolicy::Fcfs;
    /** Eviction order among unreferenced cached blocks. */
    kv::EvictionPolicy evictionPolicy = kv::EvictionPolicy::Lru;
    /** Host-memory KV spill tier, in blocks (0 disables). */
    std::int64_t hostCacheBlocks = 0;
    /** Probability an HBM eviction victim is admitted into the DRAM
     *  tier (Spitfire-style probabilistic migration). */
    double kvDramAdmitProb = 1.0;
    /** Residency discipline of the DRAM tier. */
    kv::TierMode kvDramTierMode = kv::TierMode::Exclusive;
    /** Simulated NVMe KV spill tier, in blocks (0 disables). DRAM
     *  capacity victims sink here; restores pay the NVMe read. */
    std::int64_t nvmeCacheBlocks = 0;
    /** Probability a DRAM victim (or HBM victim when the DRAM tier is
     *  disabled) is admitted into the NVMe tier. */
    double kvNvmeAdmitProb = 1.0;
    /** Residency discipline of the NVMe tier. */
    kv::TierMode kvNvmeTierMode = kv::TierMode::Exclusive;
    /**
     * Tool-call parking engages only when the HBM pool is contended:
     * requests are waiting, or live sequences pin at least this
     * fraction of the pool. An uncontended pool keeps the chain
     * resident — demoting it would trade a free HBM hit for a priced
     * restore. 0 parks every hinted chain unconditionally.
     */
    double parkUtilizationThreshold = 0.5;
    /**
     * Bytes of GPU memory reserved for the KV pool. Zero means
     * "derive from hardware": total HBM minus weights minus a 10%
     * activation reserve.
     */
    std::int64_t kvPoolBytes = 0;
    /** Per-step token budget (decode tokens + chunked prefill). */
    std::int64_t maxBatchTokens = 512;
    /** Maximum concurrently running sequences. */
    int maxRunningSeqs = 256;
    /**
     * Admission control: shed new requests once the waiting queue
     * holds this many entries (result.shed, never queued). 0 = accept
     * everything, the pre-SLO behaviour.
     */
    std::size_t maxQueueDepth = 0;
    /** Seed for the generated-token streams. */
    std::uint64_t seed = 1;

    /**
     * Iteration-sampler stride: keep every Nth step in the telemetry
     * ring (1 = every step, 0 disables). On by default — recording is
     * one struct copy into a preallocated ring.
     */
    int samplerStride = 1;
    /** Iteration-sampler ring capacity, in samples. */
    std::size_t samplerCapacity = 1 << 16;
};

/** Aggregated engine-level statistics. */
struct EngineStats
{
    std::int64_t requestsSubmitted = 0;
    std::int64_t requestsCompleted = 0;
    std::int64_t requestsFailed = 0;
    /** Requests cancelled (explicit cancel() or node crash). */
    std::int64_t requestsCancelled = 0;
    /** Requests cancelled by deadline expiry. */
    std::int64_t requestsTimedOut = 0;
    /** Requests rejected by queue-depth load shedding. */
    std::int64_t requestsShed = 0;
    std::int64_t preemptions = 0;
    std::int64_t steps = 0;
    /** Simulated node crashes (crash()). */
    std::int64_t crashes = 0;
    /** Graceful drains completed (drain() reaching shutdown). */
    std::int64_t drains = 0;
    /** Requests exported to another node by live migration. */
    std::int64_t requestsMigratedOut = 0;
    /** Requests imported from another node by live migration. */
    std::int64_t requestsMigratedIn = 0;
    /**
     * Imports that could not land their KV chain (target pool full or
     * KV lost in transit) and fell back to recompute-preemption
     * semantics: the request requeues cold and re-prefills.
     */
    std::int64_t migrationFallbacks = 0;

    /** Wall-clock seconds during which the GPU executed steps. */
    double busySeconds = 0.0;
    /**
     * Host->GPU PCIe seconds restoring spilled KV. Extends step wall
     * time but is not GPU-busy time: energy-wise the GPU idles while
     * the transfer is in flight.
     */
    double transferSeconds = 0.0;
    /** Injected engine-stall seconds (fault injection). */
    double stallSeconds = 0.0;
    /**
     * Roofline estimate of SM-active seconds (DCGM-style "core
     * utilization"): a memory-bound step keeps the cores active only
     * for its compute-time share.
     */
    double coreActiveSeconds = 0.0;
    /** busySeconds attributed to prefill / decode work. */
    double prefillSeconds = 0.0;
    double decodeSeconds = 0.0;

    std::int64_t prefillTokens = 0;
    std::int64_t decodeTokens = 0;
    double totalFlops = 0.0;

    /** Node-wide GPU energy dissipated while busy, joules. */
    double busyJoules = 0.0;

    /**
     * GPU-seconds spent re-prefilling tokens discarded by recompute
     * preemptions (a subset of prefillSeconds, not an addition).
     */
    double wastedSeconds = 0.0;
    /** Estimated prefill seconds avoided by prefix-cache reuse. */
    double savedPrefillSeconds = 0.0;
    /**
     * KV occupancy integral over all requests: blocks held x seconds
     * held (settled charges; requests still holding blocks have an
     * open interval not yet included).
     */
    double kvBlockSeconds = 0.0;
    /**
     * Interconnect + PCIe seconds spent moving migrated KV chains into
     * this node (importRequest). Off the step critical path: the
     * request is simply unavailable while its KV is in flight.
     */
    double migrationSeconds = 0.0;
    /**
     * Prefill GPU-seconds already invested in requests that were then
     * cancelled by a node failure (crash, or drain without migration)
     * — work a retry must repeat from scratch. Live migration exists
     * to keep this near zero.
     */
    double lostPrefillSeconds = 0.0;

    /**
     * Tool-call-aware parking: finished requests that announced an
     * expected park duration and had their chain demoted to the spill
     * tiers while the agent waits on its tool call.
     */
    std::int64_t parkedChains = 0;
    /** Blocks demoted by parking (freed HBM during the tool wait). */
    std::int64_t parkedBlocks = 0;
    /** Blocks promoted back to HBM by the pre-wake prefetch. */
    std::int64_t prefetchedBlocks = 0;
    /**
     * Background PCIe seconds writing parked chains to DRAM. Off the
     * step critical path: the GPU serves other work meanwhile.
     */
    double parkDemoteSeconds = 0.0;
    /**
     * Background restore seconds (PCIe and/or NVMe read) spent
     * prefetching parked chains before their continuation arrives.
     */
    double parkRestoreSeconds = 0.0;
};

/**
 * A request in flight between two engines during live migration:
 * opaque engine-internal state plus the KV chain snapshot needed to
 * rebuild (or recompute) it on the target. Produced by
 * LlmEngine::exportRequest(), consumed by importRequest() — or by
 * abortMigration() when no target can take it.
 */
struct MigratedRequest
{
    /** Engine-private request state (lifecycle, ledger, awaiter). */
    std::shared_ptr<void> state;
    /** Full token chain (prompt + generated output) for reallocation. */
    kv::TokenChain chain;
    /** Tokens whose KV was actually computed on the source — the part
     *  that must cross the interconnect (minus target cache hits). */
    std::int64_t computedTokens = 0;

    bool valid() const { return state != nullptr; }
};

/** What a graceful drain accomplished. */
struct DrainOutcome
{
    /** Requests that finished normally during the drain window. */
    std::int64_t completed = 0;
    /** Requests exported for migration at the drain deadline. */
    std::vector<MigratedRequest> leftovers;
    /** True if the drain was cut short by a concurrent crash. */
    bool crashed = false;
};

/**
 * The serving engine. One instance per serving node; single model.
 */
class LlmEngine
{
  public:
    LlmEngine(sim::Simulation &sim, const EngineConfig &config);

    LlmEngine(const LlmEngine &) = delete;
    LlmEngine &operator=(const LlmEngine &) = delete;

    /**
     * Destroys the engine loop's coroutine frame. The engine must not
     * be destroyed while its simulation still holds scheduled events
     * for it (destroy after the sim has drained): the run loop is
     * then parked on its wake completion and can be torn down safely
     * — merely detaching it would leak the frame, as an infinite
     * loop never reaches final suspend.
     */
    ~LlmEngine();

    /**
     * Submit a request and await its completion.
     *
     * Multiple concurrent generate() calls batch together — this is
     * the inter-request parallelism the paper's serving analysis
     * revolves around.
     *
     * @param handle_out optional: receives the engine-assigned request
     *        id (for cancel()) before the first suspension, i.e. it is
     *        valid as soon as generate() returns its task. Left 0 when
     *        the request is rejected up front (shed / offline / too
     *        long for the context window).
     */
    sim::Task<GenResult> generate(GenRequest request,
                                  std::uint64_t *handle_out = nullptr);

    /**
     * Cancel an in-flight request by id: its KV blocks are released
     * (whether it was waiting, prefilling or decoding) and its
     * awaiter resumes with result.cancelled set. @return false if the
     * id is unknown or the request already finished.
     */
    bool cancel(std::uint64_t request_id);

    /**
     * Simulate a node crash: every waiting and running request is
     * cancelled with nodeFailure set (clients should retry on another
     * node), the KV pool is reset — the prefix cache comes back cold —
     * and the engine rejects new requests until restart().
     */
    void crash();

    /** Bring a crashed engine back online (empty caches). */
    void restart();

    /**
     * Take an idle engine offline without the failure semantics of
     * crash(): no requests may be in flight (the caller drains
     * first), nothing is cancelled and no crash is counted. Used by
     * the autoscaler to park standby capacity; restart() brings the
     * node back (cold caches, as after any power cycle).
     */
    void standby();

    /** False between crash() and restart(). */
    bool online() const { return online_; }

    /**
     * Gracefully drain the node for planned maintenance: stop
     * admitting new requests immediately (generate() returns a
     * retryable nodeFailure, as for an offline node), let in-flight
     * work run to completion for up to @p deadline_seconds, then
     * handle the remainder — exported for live migration when
     * @p export_leftovers is set, cancelled with nodeFailure
     * otherwise. On completion the engine is offline (caches cold,
     * like any process restart); bring it back with restart().
     * A crash() during the drain window aborts the drain (the crash
     * already cancelled everything).
     */
    sim::Task<DrainOutcome> drain(double deadline_seconds,
                                  bool export_leftovers);

    /** True while drain() is waiting out its deadline. */
    bool draining() const { return draining_; }

    /** Online and not draining: the router may send traffic here. */
    bool accepting() const { return online_ && !draining_; }

    /**
     * Snapshot a waiting or running request for live migration: its
     * open KV/queue charges are settled, its block chain is exported
     * and released, and it leaves this engine's queues (the in-flight
     * step, if any, skips it). The caller owns getting the snapshot
     * to importRequest() on another node — or abortMigration().
     * @return nullopt if the id is unknown or already finished.
     */
    std::optional<MigratedRequest> exportRequest(std::uint64_t id);

    /**
     * Land a migrated request on this node. Its KV chain is
     * reallocated immediately (reusing any locally cached prefix);
     * the non-reused computed tokens pay an interconnect transfer at
     * @p interconnect_bandwidth bytes/s (plus PCIe for host-tier
     * restores), and the request activates — resuming decode or
     * chunked prefill exactly where it left off — once the transfer
     * completes. If the pool cannot hold the chain, falls back to
     * recompute-preemption semantics: generated tokens fold into the
     * prompt and the request requeues cold (the re-prefill below the
     * old watermark is charged as waste).
     */
    void importRequest(MigratedRequest migrated,
                       double interconnect_bandwidth);

    /**
     * Resolve an exported request that no node could import (whole
     * cluster draining/down): its awaiter resumes with a retryable
     * nodeFailure, exactly as if the source had crashed.
     */
    void abortMigration(MigratedRequest migrated);

    /**
     * Fault injection: extend the next engine step by @p seconds
     * (driver hiccup, garbage collection, a straggler all-reduce).
     * Accumulates if called repeatedly before a step runs.
     */
    void injectStall(double seconds);

    const EngineStats &stats() const { return stats_; }

    /** Read-only view of the block pool (tests, invariant checks). */
    const kv::BlockManager &blockManager() const { return blocks_; }

    /** KV pool statistics (hit rate, evictions). */
    const kv::CacheStats &cacheStats() const { return blocks_.stats(); }

    /** Used-KV-blocks gauge (time weighted, in blocks). */
    const stats::TimeWeightedGauge &kvUsageGauge() const
    {
        return kvUsed_;
    }

    /** Mutable gauge access for harness-level measurement windows. */
    stats::TimeWeightedGauge &kvUsageGaugeMut() { return kvUsed_; }

    /** Running-batch-size gauge (time weighted). */
    const stats::TimeWeightedGauge &batchGauge() const
    {
        return batchSize_;
    }

    /** Bytes of KV memory represented by one block. */
    std::int64_t blockBytes() const;

    /** Total KV pool size in blocks. */
    std::int64_t totalBlocks() const { return blocks_.totalBlocks(); }

    /** Requests waiting for admission. */
    std::size_t queueDepth() const { return waiting_.size(); }

    /** Requests currently running. */
    std::size_t runningCount() const { return running_.size(); }

    const EngineConfig &config() const { return config_; }
    const llm::PerfModel &perfModel() const { return perf_; }

    /** Per-iteration telemetry series (always collecting by default). */
    const telemetry::EngineSampler &sampler() const { return sampler_; }

    /**
     * Attach a cross-layer trace sink. The engine then emits one span
     * per iteration on the engine track, per-request lifecycle spans
     * (queued / prefill / decode, preemption instants) on request
     * tracks, and KV/batch counter series. Pass nullptr to detach.
     * The sink must outlive the engine (or be detached first).
     */
    void attachTrace(telemetry::TraceSink *sink);

    /**
     * Attach an online SLO tracker. The engine then feeds it TTFT (at
     * first-token emission), TBT (one observation per decoded token,
     * the step's wall time including restores and injected stalls) and
     * E2E (at completion); cancelled, timed-out and shed requests are
     * reported as unconditional violations. Pass nullptr to detach.
     * The tracker must outlive the engine (or be detached first).
     */
    void attachSlo(telemetry::SloTracker *slo);

    /**
     * Attach a causal span collector. Requests arriving with a valid
     * GenRequest::parentSpan then get Queue/Prefill/Decode phase
     * spans, Preempt markers, KvRestore and Migration transfer spans
     * attached under that parent, feeding per-request critical-path
     * blame (telemetry/critical_path.hh). Pass nullptr to detach.
     * The collector must outlive the engine (or be detached first).
     */
    void attachSpans(telemetry::SpanCollector *spans);

    /**
     * Export current engine/cache totals and occupancy gauges into a
     * metrics registry (Prometheus-style families, agentsim_ prefix).
     */
    void exportMetrics(telemetry::MetricsRegistry &registry) const;

    /**
     * Inject externally computed KV for a prompt prefix (KV arriving
     * from a disaggregated prefill node). @return blocks populated,
     * or -1 if the prefix cannot fit.
     */
    std::int64_t preloadPrefix(const kv::TokenChain &prefix);

    /**
     * Node-wide GPU energy (joules) consumed up to @p now, including
     * idle draw between steps.
     */
    double energyJoules(sim::Tick now) const;

  private:
    /** Internal request state. */
    struct Req
    {
        std::uint64_t id = 0;
        std::uint64_t sessionId = 0;
        /** Prompt chain; a recompute preemption appends the output
         *  generated so far. */
        kv::TokenChain prompt;
        std::int64_t maxNewTokens = 0;
        std::vector<kv::TokenId> output;
        /** Prompt tokens with KV in place (cached + prefilled). */
        std::int64_t prefillDone = 0;
        bool decoding = false;
        bool truncated = false;
        /** Completion already delivered; skip in any in-flight plan. */
        bool finished = false;
        /** Exported for migration; skip in any in-flight plan. */
        bool exported = false;
        /**
         * Engine currently responsible for this request. Changes on
         * live migration — the source's in-flight step plan still
         * references the Req after a same-tick re-import has cleared
         * `exported` and reassigned `id`, so plan consumers must also
         * check ownership before touching engine-local state.
         */
        LlmEngine *owner = nullptr;
        /**
         * Sitting in waiting_ as a re-admission (preemption victim or
         * migration fallback), not a fresh arrival — exempt from the
         * maxQueueDepth shed check, which guards against *new* load.
         */
        bool requeued = false;

        /** Absolute deadline tick (-1: none). */
        sim::Tick deadlineTick = -1;

        sim::Tick submitTick = 0;
        sim::Tick firstScheduleTick = -1;
        sim::Tick firstTokenTick = -1;
        double prefillSecondsAcc = 0.0;
        double decodeSecondsAcc = 0.0;
        /** PCIe seconds restoring this request's host-spilled KV. */
        double transferSecondsAcc = 0.0;
        double flopsAcc = 0.0;
        std::int64_t cachedPromptTokens = 0;
        std::int64_t firstPromptLen = 0;
        int preemptions = 0;
        /** Agent's expected tool-call wait after this request (s);
         *  > 0 arms tool-call-aware KV parking at completion. */
        double parkSeconds = 0.0;

        /** Attributed resource charges (serving/cost.hh). */
        CostLedger ledger;
        /** Blocks charged for since kvMarkTick (0 = none held). */
        std::int64_t heldBlocks = 0;
        /** Start of the open KV-occupancy charging interval. */
        sim::Tick kvMarkTick = 0;
        /**
         * Tokens of KV this request had computed when it was last
         * preempted; re-prefilling below this watermark is waste.
         */
        std::int64_t recomputeWatermark = 0;
        /** Entry tick of the current queueing episode (-1: none). */
        sim::Tick queuedSince = -1;

        /** Current lifecycle phase on the trace (nullptr = none). */
        const char *tracePhase = nullptr;
        sim::Tick tracePhaseStart = 0;

        /** Caller's span to attach engine phase spans under. */
        telemetry::SpanRef parentSpan;
        /** Open phase span mirroring tracePhase. */
        telemetry::SpanRef phaseSpan;

        sim::Completion<GenResult> done;

        Req(sim::Simulation &sim) : done(sim) {}
    };

    using ReqPtr = std::shared_ptr<Req>;

    /** Work selected for one engine step. */
    struct StepPlan
    {
        llm::StepWork work;
        /** Extra wall time for host->GPU KV restores, seconds. */
        double extraSeconds = 0.0;
        /** Injected stall time folded into this step, seconds. */
        double stallSeconds = 0.0;
        /** Requests receiving one decode token. */
        std::vector<ReqPtr> decoders;
        struct PrefillPart
        {
            ReqPtr req;
            std::int64_t tokens;
        };
        std::vector<PrefillPart> prefills;

        /** Empty the plan for reuse, keeping vector capacity — the
         *  step loop builds one of these per engine step, so the
         *  scratch plan amortizes to zero allocations. */
        void
        reset()
        {
            work.prefills.clear();
            work.decodeContexts.clear();
            extraSeconds = 0.0;
            stallSeconds = 0.0;
            decoders.clear();
            prefills.clear();
        }
    };

    sim::Simulation &sim_;
    EngineConfig config_;
    llm::PerfModel perf_;
    kv::BlockManager blocks_;

    std::deque<ReqPtr> waiting_;
    std::vector<ReqPtr> running_; // admission order
    std::optional<sim::Completion<int>> wake_;
    std::uint64_t nextId_ = 1;
    bool online_ = true;
    /** drain() in progress: admissions closed, work finishing. */
    bool draining_ = false;
    /** Entries of waiting_ that are re-admissions (Req::requeued). */
    std::size_t requeuedInWaiting_ = 0;
    /** Stall seconds awaiting the next step (injectStall). */
    double pendingStallSeconds_ = 0.0;
    /** Reusable step plan (see StepPlan::reset). */
    StepPlan planScratch_;
    /** Cumulative attributed GPU seconds per session (LAS policy). */
    std::unordered_map<std::uint64_t, double> sessionService_;

    EngineStats stats_;
    stats::TimeWeightedGauge kvUsed_;
    stats::TimeWeightedGauge batchSize_;
    telemetry::EngineSampler sampler_;
    telemetry::TraceSink *trace_ = nullptr;
    telemetry::SloTracker *slo_ = nullptr;
    telemetry::SpanCollector *spans_ = nullptr;

    sim::Task<void> loop_;

    sim::Task<void> runLoop();
    /** Select this step's work into planScratch_ (returned by
     *  reference; valid until the next buildStep call). */
    StepPlan &buildStep();

    /** Pick the next admission candidate per the scheduler policy. */
    std::deque<ReqPtr>::iterator nextAdmissionCandidate();
    void commitStep(const StepPlan &plan, const llm::StepCost &cost,
                    sim::Tick step_start);

    /** Open a request-lifecycle phase span (trace + span tree). */
    void tracePhaseBegin(Req &req, const char *phase,
                         telemetry::SpanKind kind);

    /** Close the request's open phase span, if any. */
    void tracePhaseEnd(Req &req);

    /** Preempt the latest-arrived running request (recompute). */
    void preemptOne(StepPlan &plan);

    /** Fail a request that can never be served. */
    void failRequest(const ReqPtr &req);

    /** Complete a request and release its sequence. */
    void finishRequest(const ReqPtr &req);

    /**
     * Tool-call-aware parking, run at request completion: when the
     * request announced an expected tool wait and a spill tier is
     * enabled, demote its now-idle chain out of HBM and schedule a
     * prefetch that promotes it back just before the continuation
     * wakes. Both transfers happen off the step critical path.
     */
    void maybeParkChain(const ReqPtr &req);

    /** Why a request is being cancelled. */
    enum class CancelCause
    {
        Client,      ///< explicit cancel()
        Deadline,    ///< per-request deadline expired
        NodeFailure, ///< engine crash
    };

    /**
     * Cancel a request: release its blocks (if allocated), remove it
     * from waiting_/running_, and resume its awaiter with the flags
     * for @p cause.
     */
    void cancelRequest(const ReqPtr &req, CancelCause cause);

    /** Cancel every request whose deadline has passed. */
    void expireDeadlines();

    /**
     * Bookkeeping for a request leaving waiting_ by any path: clears
     * its re-admission mark so the shed check's fresh-arrival count
     * stays exact.
     */
    void noteLeftWaiting(Req &req);

    /** Requeue a request with re-admission accounting and trace. */
    void requeueRequest(const ReqPtr &req, bool front);

    /** Activate an imported request once its KV transfer lands. */
    void activateImported(const ReqPtr &req, kv::TokenChain chain,
                          std::int64_t computed_tokens);

    /**
     * Settle the request's open KV-occupancy interval into its ledger
     * and restart the interval at the request's current block count.
     * Must run before any operation that changes the count (append,
     * release) so the elapsed time is charged at the old rate.
     */
    void chargeKv(Req &req);

    /** Settle the current queueing episode into the ledger. */
    void chargeQueue(Req &req);

    /** Report a request lost before completion to the SLO tracker. */
    void sloFailure(const Req &req);

    /** Produce the next synthetic output token for a request. */
    kv::TokenId genToken(Req &req);

    void updateGauges();

    static std::int64_t derivePoolBlocks(const EngineConfig &config);
};

} // namespace agentsim::serving

#endif // AGENTSIM_SERVING_ENGINE_HH
