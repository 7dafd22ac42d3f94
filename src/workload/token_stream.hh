/**
 * @file
 * Deterministic synthetic token streams.
 *
 * Prompts are runs of 64-bit token ids derived from named streams.
 * Two prompt segments with the same (seed, labels...) produce identical
 * token ids, so logically shared prefixes (the instruction block of an
 * agent, a task's accumulated history) are *literally* shared and the
 * KV prefix cache behaves as it would on real text.
 */

#ifndef AGENTSIM_WORKLOAD_TOKEN_STREAM_HH
#define AGENTSIM_WORKLOAD_TOKEN_STREAM_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "kv/token_chain.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace agentsim::workload
{

/** Build a stream id from a seed and a label. */
inline std::uint64_t
streamId(std::uint64_t seed, std::string_view label)
{
    return sim::hashCombine(seed, sim::fnv1a(label));
}

/** Extend a stream id with a numeric discriminator. */
inline std::uint64_t
substream(std::uint64_t stream, std::uint64_t index)
{
    return sim::hashCombine(stream, index);
}

using kv::tokenAt;

/** Materialize @p count tokens of a stream starting at @p offset, one
 *  multiply per token (prompt paths never materialize a run: they
 *  append it to a TokenChain in closed form). */
inline std::vector<kv::TokenId>
makeTokens(std::uint64_t stream, std::int64_t count,
           std::int64_t offset = 0)
{
    AGENTSIM_ASSERT(count >= 0, "negative token count");
    namespace gf = kv::gf;
    std::vector<kv::TokenId> out(static_cast<std::size_t>(count));
    const std::uint64_t shift = gf::streamShift(stream);
    // Four interleaved lanes, each stepping by g^4, so consecutive
    // multiplies do not wait on each other.
    constexpr std::size_t kLanes = 4;
    std::uint64_t x[kLanes];
    x[0] = gf::mul(gf::streamScale(stream),
                   gf::powG(static_cast<std::uint64_t>(offset)));
    for (std::size_t k = 1; k < kLanes; ++k)
        x[k] = gf::mul(x[k - 1], gf::kG);
    const std::uint64_t step = gf::powG(kLanes);
    std::size_t i = 0;
    for (; i + kLanes <= out.size(); i += kLanes) {
        for (std::size_t k = 0; k < kLanes; ++k) {
            out[i + k] = gf::add(x[k], shift);
            x[k] = gf::mul(x[k], step);
        }
    }
    for (std::size_t k = 0; k < kLanes && i + k < out.size(); ++k)
        out[i + k] = gf::add(x[k], shift);
    return out;
}

} // namespace agentsim::workload

#endif // AGENTSIM_WORKLOAD_TOKEN_STREAM_HH
