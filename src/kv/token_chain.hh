/**
 * @file
 * Append-only prompt representation shared by the agent, serving and
 * KV layers.
 *
 * A prompt only ever grows at its end: an agent's next call re-sends
 * the previous prompt plus the latest LLM output and tool observation.
 * A TokenChain therefore stores what the block manager needs — one
 * chain hash per full block plus the partial block's running state and
 * its length — and stores no tokens. Copying a chain costs one hash
 * per block (1/blockSize of the tokens), so tree branches and
 * checkpoints fork it cheaply.
 *
 * The hash is defined over GF(p), p = 2^61 - 1 (namespace gf):
 *  - a literal token folds as t mod p;
 *  - stream token i of stream s is tokenAt(s, i) = a_s g^i + b_s,
 *    with a_s and b_s two independent mixes of s (b_s keeps any
 *    stream from being a shifted copy of another, which a_s g^i
 *    alone would allow whenever a_B = a_A g^k);
 *  - a block's polynomial is the Horner fold of its tokens in base r;
 *  - a block's chain hash is hashCombine(blockSeed(prev), poly), prev
 *    being the previous block's chain hash (0 for the first block).
 * A run of k stream tokens starting at index i contributes
 * a g^i (g^k - r^k) / (g - r) + b (r^k - 1) / (r - 1) to its block's
 * polynomial: appendStream() costs O(1) per block it touches, however
 * long the run, and a run continued by one token at a time (decode)
 * costs a counter bump until its block seals.
 *
 * The hashes depend only on the token content, never on how the
 * chain was assembled: runs split anywhere, literal copies of the same
 * tokens and any mix of the two give the same chain.
 *
 * Collision bound. Two blocks that follow different prefixes collide
 * with the 64-bit probability of hashCombine over distinct seeds, as
 * before. Two different blocks after the same prefix collide only if
 * their polynomials agree at r: a nonzero polynomial of degree
 * blockSize - 1 has at most blockSize - 1 roots, so the bound is
 * (blockSize - 1) / p per pair over the choice of r (and distinct
 * polynomials give distinct hashes, hashCombine being injective in
 * its second argument). Literal tokens are taken mod p, so t and
 * t + p are the same token.
 */

#ifndef AGENTSIM_KV_TOKEN_CHAIN_HH
#define AGENTSIM_KV_TOKEN_CHAIN_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hh"

namespace agentsim::kv
{

/** Opaque synthetic token identifier. */
using TokenId = std::uint64_t;

/** Arithmetic in GF(p), p = 2^61 - 1, for tokens and block hashes. */
namespace gf
{

inline constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;

/** Stream base: a primitive root, so no stream repeats within p - 1
 *  tokens. */
inline constexpr std::uint64_t kG = 0x167892094da4f126ULL;
/** Horner base of the block polynomial. */
inline constexpr std::uint64_t kR = 0x0c9b02bbdd5e53beULL;

/** x mod p for x < 2p. */
constexpr std::uint64_t
fold(std::uint64_t x)
{
    return x >= kP ? x - kP : x;
}

/** Any 64-bit value mod p. */
constexpr std::uint64_t
reduce(std::uint64_t x)
{
    return fold((x & kP) + (x >> 61));
}

/** a + b for a, b < p. */
constexpr std::uint64_t
add(std::uint64_t a, std::uint64_t b)
{
    return fold(a + b);
}

/** a * b for a, b < p: 2^61 = 1 mod p, so the product's high bits
 *  add onto its low 61. */
constexpr std::uint64_t
mul(std::uint64_t a, std::uint64_t b)
{
    const unsigned __int128 m = static_cast<unsigned __int128>(a) * b;
    return fold((static_cast<std::uint64_t>(m) & kP) +
                static_cast<std::uint64_t>(m >> 61));
}

/** Table t[j][v] = g^(v * 256^j): g^e in one lookup per byte of e. */
using PowTable = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr PowTable
makeGPowers()
{
    PowTable t{};
    std::uint64_t base = kG; // g^(256^j)
    for (auto &row : t) {
        row[0] = 1;
        for (std::size_t v = 1; v < row.size(); ++v)
            row[v] = mul(row[v - 1], base);
        base = mul(row[255], base);
    }
    return t;
}

inline constexpr PowTable kGPowers = makeGPowers();

/** g^e. */
constexpr std::uint64_t
powG(std::uint64_t e)
{
    std::uint64_t out = kGPowers[0][e & 0xff];
    for (std::size_t j = 1; (e >>= 8) != 0; ++j)
        out = mul(out, kGPowers[j][e & 0xff]);
    return out;
}

/** a_s: a stream's scale, never 0. */
inline std::uint64_t
streamScale(std::uint64_t stream)
{
    const std::uint64_t a =
        reduce(sim::hashMix(stream ^ 0x5bd1e9955bd1e995ULL));
    return a == 0 ? 1 : a;
}

/** b_s: a stream's shift. */
inline std::uint64_t
streamShift(std::uint64_t stream)
{
    return reduce(sim::hashMix(stream ^ 0xc2b2ae3d27d4eb4fULL));
}

} // namespace gf

/** The @p index-th token of synthetic stream @p stream (the streams
 *  are named in workload/token_stream.hh): a_s g^index + b_s. */
inline TokenId
tokenAt(std::uint64_t stream, std::uint64_t index)
{
    return gf::add(gf::mul(gf::streamScale(stream), gf::powG(index)),
                   gf::streamShift(stream));
}

/**
 * Tokens offset .. offset + count - 1 of a synthetic stream: how
 * prompt segments, tool observations and generated output travel.
 * Holding one copies no tokens; a chain appends it in O(1) per block.
 */
struct TokenRun
{
    std::uint64_t stream = 0;
    std::int64_t offset = 0;
    std::int64_t count = 0;

    /** Index one past the run's last token. */
    std::int64_t end() const { return offset + count; }

    bool operator==(const TokenRun &) const = default;
};

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

    /** Append literal @p tokens, hashing every block they complete. */
    void append(std::span<const TokenId> tokens);

    /**
     * Append tokens @p offset .. @p offset + @p count - 1 of synthetic
     * stream @p stream in closed form, O(1) per block touched. Equal
     * to append() of the same tokenAt() tokens. A run that continues
     * the chain's last run (same stream, next index) inside the
     * partial block is a counter bump.
     */
    void
    appendStream(std::uint64_t stream, std::int64_t offset,
                 std::int64_t count)
    {
        if (continuesRun(stream, offset) &&
            static_cast<std::uint64_t>(count) <
                static_cast<std::uint64_t>(blockSize_ - tailLen_)) {
            const auto n = static_cast<int>(count);
            runNext_ += static_cast<std::uint64_t>(count);
            runLen_ += n;
            tailLen_ += n;
            return;
        }
        appendRun(stream, offset, count);
    }

    /** Append a stream run. */
    void append(const TokenRun &run)
    {
        appendStream(run.stream, run.offset, run.count);
    }

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

    /** Equal content: same blocks, and a partial block of the same
     *  length and polynomial, however either was assembled. */
    bool operator==(const TokenChain &other) const;

  private:
    /** A block's seed, from the previous block's chain hash (0 for
     *  the first block). */
    static std::uint64_t
    blockSeed(std::uint64_t prev_hash)
    {
        return sim::hashMix(prev_hash ^ 0x9d5a3f7c1e284b69ULL);
    }

    bool
    continuesRun(std::uint64_t stream, std::int64_t offset) const
    {
        return hasRun_ && stream == runStream_ &&
               static_cast<std::uint64_t>(offset) == runNext_;
    }

    /** appendStream() beyond the counter-bump case. */
    void appendRun(std::uint64_t stream, std::int64_t offset,
                   std::int64_t count);

    /** The partial block's polynomial, the open run folded in. */
    std::uint64_t tailPoly() const;

    /** Fold the open run's runLen_ tokens into tailPoly_ and step
     *  runX_ past them. */
    void closeRun();

    /** Hash the full partial block whose polynomial is @p poly;
     *  start an empty one. */
    void seal(std::uint64_t poly);

    int blockSize_ = 0;
    /** Tokens in the partial block. */
    int tailLen_ = 0;
    /** Of those, the open run's: the partial block's last runLen_. */
    int runLen_ = 0;
    /** An open run exists: a stream run may continue it. */
    bool hasRun_ = false;
    std::vector<std::uint64_t> hashes_;
    /** Horner fold of the partial block's tokens before the open run. */
    std::uint64_t tailPoly_ = 0;
    /** The open run's stream, its next index, and a_s g^(index of
     *  its first token in the partial block). */
    std::uint64_t runStream_ = 0;
    std::uint64_t runNext_ = 0;
    std::uint64_t runX_ = 0;
};

} // namespace agentsim::kv

#endif // AGENTSIM_KV_TOKEN_CHAIN_HH
