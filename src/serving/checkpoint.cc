#include "serving/checkpoint.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace agentsim::serving
{

bool
CheckpointStore::shouldCheckpoint(std::uint64_t episode,
                                  int completed_iterations)
{
    if (!policy_.enabled)
        return false;
    if (completed_iterations < policy_.minIterations)
        return false;
    if (policy_.everyIterations > 1 &&
        completed_iterations % policy_.everyIterations != 0) {
        return false;
    }
    if (policy_.admitProb >= 1.0)
        return true;
    auto it = admitRng_.find(episode);
    if (it == admitRng_.end()) {
        it = admitRng_
                 .emplace(episode,
                          sim::Rng(seed_, "checkpoint", episode))
                 .first;
    }
    return it->second.bernoulli(policy_.admitProb);
}

void
CheckpointStore::put(std::uint64_t episode, EpisodeCheckpoint ckpt,
                     double bytes_per_token)
{
    AGENTSIM_ASSERT(bytes_per_token >= 0.0,
                    "negative checkpoint KV pricing");
    // Delta journaling: the previous snapshot's prefix bytes are
    // already in the store, so only newly appended chain tokens (plus
    // the fixed journal overhead) hit the wire. A shrinking chain
    // (e.g. a Reflexion trial boundary resetting the trajectory)
    // costs only the journal overhead.
    std::int64_t prev_tokens = 0;
    if (const auto it = entries_.find(episode); it != entries_.end())
        prev_tokens = it->second.chain.size();
    const auto delta_tokens = static_cast<double>(
        std::max<std::int64_t>(ckpt.chain.size() - prev_tokens, 0));
    ckpt.snapshotBytes =
        policy_.journalBytes +
        static_cast<std::int64_t>(delta_tokens * bytes_per_token);
    ++stats_.checkpointsTaken;
    stats_.bytesWritten += ckpt.snapshotBytes;
    if (policy_.wireBandwidth > 0.0) {
        stats_.snapshotSeconds +=
            static_cast<double>(ckpt.snapshotBytes) /
            policy_.wireBandwidth;
    }
    entries_[episode] = std::move(ckpt);
}

const EpisodeCheckpoint *
CheckpointStore::find(std::uint64_t episode) const
{
    const auto it = entries_.find(episode);
    return it != entries_.end() ? &it->second : nullptr;
}

void
CheckpointStore::erase(std::uint64_t episode)
{
    entries_.erase(episode);
    admitRng_.erase(episode);
}

} // namespace agentsim::serving
