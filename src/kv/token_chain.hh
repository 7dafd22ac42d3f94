/**
 * @file
 * Append-only prompt representation shared by the agent, serving and
 * KV layers.
 *
 * A prompt only ever grows at its end: an agent's next call re-sends
 * the previous prompt plus the latest LLM output and tool observation.
 * A TokenChain therefore stores what the block manager needs — one
 * chain hash per full block plus the running hash of the partial
 * block and its length — and hashes each token exactly once, when it
 * is appended. It stores no tokens: synthetic prompt tokens are
 * hashed where they are made (appendStream), and copying a chain
 * costs one hash per block (1/blockSize of the tokens), so tree
 * branches and checkpoints fork it cheaply.
 *
 * The hashes depend only on the token content, never on how the
 * chain was assembled: appending [a, b] then [c] yields the same
 * chain as appending [a, b, c] at once.
 */

#ifndef AGENTSIM_KV_TOKEN_CHAIN_HH
#define AGENTSIM_KV_TOKEN_CHAIN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hh"

namespace agentsim::kv
{

/** Opaque synthetic token identifier. */
using TokenId = std::uint64_t;

/** The @p index-th token of synthetic stream @p stream (the streams
 *  are named in workload/token_stream.hh). */
inline TokenId
tokenAt(std::uint64_t stream, std::uint64_t index)
{
    return sim::hashMix(stream ^
                        (index * 0x9e3779b97f4a7c15ULL + 0x2545f491ULL));
}

/** Block-hashed append-only token sequence. */
class TokenChain
{
  public:
    /** An unusable placeholder (block size 0); assign a real chain. */
    TokenChain() = default;

    /** An empty chain hashed in blocks of @p block_size tokens. */
    explicit TokenChain(int block_size);

    /** A chain holding @p tokens. */
    TokenChain(int block_size, std::span<const TokenId> tokens);

    /** Append @p tokens, hashing every block they complete. */
    void append(std::span<const TokenId> tokens);

    /**
     * Append tokens @p offset .. @p offset + @p count - 1 of synthetic
     * stream @p stream, folding each tokenAt() straight into the
     * hash. Equal to append() of the same tokens.
     */
    void appendStream(std::uint64_t stream, std::int64_t offset,
                      std::int64_t count);

    /** Append one token. */
    void push_back(TokenId token);

    /** Tokens per hashed block. */
    int blockSize() const { return blockSize_; }

    /** Total token count. */
    std::int64_t size() const { return fullBlocks() * blockSize_ + tailLen_; }

    bool empty() const { return size() == 0; }

    /** Chain hash of every full block, in order. */
    std::span<const std::uint64_t> blockHashes() const
    {
        return hashes_;
    }

    /** Number of full blocks. */
    std::int64_t fullBlocks() const
    {
        return static_cast<std::int64_t>(hashes_.size());
    }

    /** Tokens in the partial last block (fewer than blockSize()). */
    int tailSize() const { return tailLen_; }

    bool operator==(const TokenChain &) const = default;

  private:
    /** A block's running hash before its first token, from the
     *  previous block's chain hash (0 for the first block). */
    static std::uint64_t
    blockSeed(std::uint64_t prev_hash)
    {
        return sim::hashMix(prev_hash ^ 0x9d5a3f7c1e284b69ULL);
    }

    /**
     * Fold one token into the partial block; seal it when full. The
     * chain hash of a block is thus the hashCombine fold of its tokens
     * over blockSeed(): the one definition of block identity in the
     * prefix cache.
     */
    void
    fold(TokenId token)
    {
        tailHash_ = sim::hashCombine(tailHash_, token);
        if (++tailLen_ == blockSize_) {
            hashes_.push_back(tailHash_);
            tailHash_ = blockSeed(tailHash_);
            tailLen_ = 0;
        }
    }

    int blockSize_ = 0;
    int tailLen_ = 0;
    std::vector<std::uint64_t> hashes_;
    /** Running hash of the partial block's tailLen_ tokens. */
    std::uint64_t tailHash_ = 0;
};

} // namespace agentsim::kv

#endif // AGENTSIM_KV_TOKEN_CHAIN_HH
