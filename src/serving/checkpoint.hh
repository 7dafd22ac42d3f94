/**
 * @file
 * Episode checkpoint store — recover the *work*, not just the
 * request. A long agent rollout that dies at iteration 7 of 8
 * currently replays the whole episode on another node; yet the state
 * that reproduces it (workflow position, accumulated trace, the
 * conversation-prefix token chain) is tiny next to the GPU-seconds
 * that produced it. The store journals that state at iteration
 * boundaries so the cluster's retry path can resume instead of
 * restart.
 *
 * Layering: serving cannot see agent types, so the workflow snapshot
 * travels as an opaque shared_ptr tagged with the workflow kind; the
 * agent that wrote it casts it back on resume (the cluster guards the
 * tag against brownout downgrades). The KV side is explicit: the
 * checkpoint carries the prefix token chain, and the restore path
 * prices wiring those bytes back (migration-style) against
 * recomputing the prefill cold, taking whichever is cheaper.
 *
 * Snapshots are journal *deltas*: re-checkpointing an episode pays
 * only for the tokens appended since the previous checkpoint (the
 * prefix bytes are already in the store), plus a fixed journal
 * overhead. Write time is priced against `wireBandwidth` — a
 * host-DRAM-class path, never HBM residency — and accounted as
 * background bytes, not sim delay: snapshot writes overlap the next
 * iteration's decode exactly like PR 7's background tier demotions.
 *
 * Determinism: the probabilistic admission knob draws from a
 * dedicated per-episode `sim::Rng(seed, "checkpoint", episode)`
 * stream (the `"kv.tier"` idiom), so enabling checkpointing consumes
 * nothing from the fault, retry or workload streams. With the policy
 * disabled the store is never constructed and the run is
 * bit-identical to a build without this file.
 */

#ifndef AGENTSIM_SERVING_CHECKPOINT_HH
#define AGENTSIM_SERVING_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/block_manager.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "telemetry/stat_table.hh"

namespace agentsim::serving
{

/** When and how eagerly episodes are checkpointed. */
struct CheckpointPolicy
{
    /** Master switch. Off: no store, no draws, bit-identical runs. */
    bool enabled = false;
    /** Journal every k-th completed iteration (1 = every). */
    int everyIterations = 1;
    /**
     * Skip episodes younger than this many completed iterations: a
     * young episode is cheap to replay, so the snapshot overhead
     * cannot pay for itself yet.
     */
    int minIterations = 1;
    /**
     * Probability an eligible iteration is actually journaled, drawn
     * from the dedicated "checkpoint" stream (1 = always). Lets
     * operators shed snapshot bandwidth under pressure without
     * perturbing any other stream.
     */
    double admitProb = 1.0;
    /**
     * Snapshot/restore wire bandwidth, B/s. Checkpoints live in host
     * DRAM (spilling to NVMe under pressure), so the default is a
     * PCIe-class path, not the 200 GB/s inter-node interconnect.
     */
    double wireBandwidth = 25e9;
    /** Fixed journal overhead per snapshot (workflow state, trace),
     *  bytes. */
    std::int64_t journalBytes = 4096;
};

/**
 * One journaled episode snapshot: enough to resume the rollout at
 * the last completed iteration on any node.
 */
struct EpisodeCheckpoint
{
    /** Workflow kind that wrote `state` (agents::AgentKind value);
     *  a resume under a different kind must discard the snapshot. */
    int kindTag = -1;
    /** Completed iterations at snapshot time (resume starts here). */
    int iteration = 0;
    /** Sim time the snapshot was taken. */
    sim::Tick takenTick = 0;
    /** Opaque workflow state (agent-owned type; see file comment). */
    std::shared_ptr<const void> state;
    /**
     * Conversation-prefix chain the next iteration will prefill with
     * — what the restore path warms (or recomputes) on the surviving
     * node. A copy of the workflow's running prompt chain.
     */
    kv::TokenChain chain;
    /** GPU-seconds invested in the episode up to this snapshot — the
     *  work a resume recovers. */
    double gpuSeconds = 0.0;
    /** Bytes this snapshot added to the store (delta-journaled). */
    std::int64_t snapshotBytes = 0;
};

/** Why a resumed episode had to retry: its `cause` label. */
struct RecoveryCause
{
    enum : std::size_t
    {
        Crash, ///< node failure or offline routing
        Shed,  ///< engine admission shed
        Count
    };
    static constexpr std::array<const char *, Count> names{"crash",
                                                           "shed"};
};

/** Checkpoint/recovery accounting, store- and cluster-side. */
struct RecoveryStats
{
    /** Snapshots journaled. */
    std::int64_t checkpointsTaken = 0;
    /** Bytes written into the store (delta-journaled). */
    std::int64_t bytesWritten = 0;
    /** Background wire-seconds spent writing snapshots. */
    double snapshotSeconds = 0.0;
    /** Retries that resumed from a checkpoint instead of replaying. */
    std::int64_t resumes = 0;
    /** Resumes that warmed the prefix KV over the wire. */
    std::int64_t kvRestores = 0;
    /** Resumes that recomputed the prefix cold (priced cheaper, or
     *  nothing to restore). */
    std::int64_t coldFallbacks = 0;
    /** Wire-seconds spent restoring prefix KV on resume. */
    double restoreSeconds = 0.0;
    /** GPU-seconds of completed work a resume did *not* recompute. */
    double recoveredGpuSeconds = 0.0;
    /** GPU-seconds of work lost to retries anyway (invested since the
     *  last snapshot — with checkpointing off, the whole episode). */
    double lostGpuSeconds = 0.0;
    /** recoveredGpuSeconds split by RecoveryCause. */
    std::array<double, RecoveryCause::Count> recoveredByCause{};
};

/**
 * The RecoveryStats field table, lostGpuSeconds first (the one row a
 * run without checkpointing exports). recoveredByCause is exported
 * as agentsim_recovery_recovered_gpu_seconds_total{cause}, so the
 * recoveredGpuSeconds row is not.
 */
extern const telemetry::StatTable<RecoveryStats> kRecoveryStatFields;

/**
 * Keyed store of the latest checkpoint per in-flight episode. One
 * instance per cluster run; episodes are keyed by request index.
 * Entries are erased when the episode completes or is abandoned, so
 * steady-state footprint is proportional to in-flight episodes only.
 */
class CheckpointStore
{
  public:
    CheckpointStore(const CheckpointPolicy &policy, std::uint64_t seed)
        : policy_(policy), seed_(seed)
    {
    }

    const CheckpointPolicy &policy() const { return policy_; }

    /**
     * Policy gate: should an episode with @p completed_iterations
     * journal a snapshot now? Draws from the per-episode "checkpoint"
     * stream only when admitProb < 1 (and only for otherwise-eligible
     * iterations), so the knob cannot perturb other streams.
     */
    bool shouldCheckpoint(std::uint64_t episode,
                          int completed_iterations);

    /**
     * Journal @p ckpt as episode @p episode's latest snapshot,
     * replacing any previous one. @p bytes_per_token prices the KV
     * prefix; only tokens beyond the previous snapshot's chain are
     * charged (the store already holds the prefix).
     */
    void put(std::uint64_t episode, EpisodeCheckpoint ckpt,
             double bytes_per_token);

    /** Latest snapshot for @p episode, or null. */
    const EpisodeCheckpoint *find(std::uint64_t episode) const;

    /** Drop @p episode's snapshot (episode finished or abandoned). */
    void erase(std::uint64_t episode);

    /** Store-side accounting (taken/bytes/write-seconds). */
    const RecoveryStats &stats() const { return stats_; }

    std::size_t size() const { return entries_.size(); }

  private:
    CheckpointPolicy policy_;
    std::uint64_t seed_;
    std::unordered_map<std::uint64_t, EpisodeCheckpoint> entries_;
    /** Dedicated admission streams, one per episode, engaged lazily
     *  and only when admitProb < 1 (determinism: see file comment). */
    std::unordered_map<std::uint64_t, sim::Rng> admitRng_;
    RecoveryStats stats_;
};

} // namespace agentsim::serving

#endif // AGENTSIM_SERVING_CHECKPOINT_HH
