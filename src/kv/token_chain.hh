/**
 * @file
 * Append-only prompt representation shared by the agent, serving and
 * KV layers.
 *
 * A prompt only ever grows at its end: an agent's next call re-sends
 * the previous prompt plus the latest LLM output and tool observation.
 * A TokenChain therefore stores what the block manager needs — one
 * chain hash per full block plus the tokens of the partial last block
 * — and hashes each token exactly once, when it is appended. Copying
 * a chain costs one hash per block (1/blockSize of the tokens), so
 * tree branches and checkpoints fork it cheaply.
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

namespace agentsim::kv
{

/** Opaque synthetic token identifier. */
using TokenId = std::uint64_t;

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

    /** Append one token. */
    void push_back(TokenId token);

    /** Tokens per hashed block. */
    int blockSize() const { return blockSize_; }

    /** Total token count. */
    std::int64_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

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

    /** Tokens of the partial last block (fewer than blockSize()). */
    std::span<const TokenId> tail() const { return tail_; }

    bool operator==(const TokenChain &) const = default;

  private:
    /**
     * Chain hash of a block from the previous block's chain hash (0
     * for the first block) and the block's tokens. The one
     * definition of block identity in the prefix cache.
     */
    static std::uint64_t chunkHash(std::uint64_t prev_hash,
                                   std::span<const TokenId> chunk);

    /** Hash the full tail as the next block. */
    void sealBlock();

    int blockSize_ = 0;
    std::vector<std::uint64_t> hashes_;
    std::vector<TokenId> tail_;
    std::int64_t size_ = 0;
};

} // namespace agentsim::kv

#endif // AGENTSIM_KV_TOKEN_CHAIN_HH
