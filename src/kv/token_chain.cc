#include "kv/token_chain.hh"

#include <array>

#include "sim/logging.hh"

namespace agentsim::kv
{

namespace
{

using gf::kG;
using gf::kP;
using gf::kR;
using gf::mul;

/** x^e by squaring. */
constexpr std::uint64_t
power(std::uint64_t x, std::uint64_t e)
{
    std::uint64_t out = 1;
    for (; e != 0; e >>= 1, x = mul(x, x)) {
        if ((e & 1) != 0)
            out = mul(out, x);
    }
    return out;
}

/** What a run of k stream tokens needs to fold into a block. */
struct RunCoeffs
{
    /** g^k: steps a_s g^i to the token after the run. */
    std::uint64_t gk = 1;
    /** r^k: shifts what precedes the run in its block. */
    std::uint64_t rk = 1;
    /** (g^k - r^k) / (g - r): the run's weight on a_s g^i. */
    std::uint64_t cg = 0;
    /** (r^k - 1) / (r - 1): the run's weight on b_s. */
    std::uint64_t cr = 0;
};

constexpr RunCoeffs
runCoeffsOf(std::uint64_t gk, std::uint64_t rk)
{
    constexpr std::uint64_t inv_g_r = power((kG + kP - kR) % kP, kP - 2);
    constexpr std::uint64_t inv_r_1 = power(kR - 1, kP - 2);
    return {gk, rk, mul((gk + kP - rk) % kP, inv_g_r),
            mul((rk + kP - 1) % kP, inv_r_1)};
}

/** Runs of up to this many tokens (every block size in use) read
 *  their coefficients from a table. */
constexpr std::size_t kRunTable = 256;

constexpr std::array<RunCoeffs, kRunTable + 1>
makeRunCoeffs()
{
    std::array<RunCoeffs, kRunTable + 1> t{};
    std::uint64_t gk = 1;
    std::uint64_t rk = 1;
    for (auto &c : t) {
        c = runCoeffsOf(gk, rk);
        gk = mul(gk, kG);
        rk = mul(rk, kR);
    }
    return t;
}

constexpr std::array<RunCoeffs, kRunTable + 1> kRunCoeffs =
    makeRunCoeffs();

/** Coefficients of a run of @p k tokens. */
RunCoeffs
runCoeffs(std::int64_t k)
{
    const auto n = static_cast<std::uint64_t>(k);
    return n <= kRunTable ? kRunCoeffs[n]
                          : runCoeffsOf(gf::powG(n), power(kR, n));
}

} // namespace

TokenChain::TokenChain(int block_size) : blockSize_(block_size)
{
    AGENTSIM_ASSERT(block_size > 0, "token chain block size %d",
                    block_size);
}

TokenChain::TokenChain(int block_size, std::span<const TokenId> tokens)
    : TokenChain(block_size)
{
    append(tokens);
}

void
TokenChain::append(std::span<const TokenId> tokens)
{
    AGENTSIM_ASSERT(blockSize_ > 0, "append to a placeholder chain");
    if (tokens.empty())
        return;
    closeRun();
    hasRun_ = false;
    for (const TokenId t : tokens) {
        tailPoly_ = gf::add(gf::mul(tailPoly_, gf::kR), gf::reduce(t));
        if (++tailLen_ == blockSize_)
            seal(tailPoly_);
    }
}

void
TokenChain::appendRun(std::uint64_t stream, std::int64_t offset,
                      std::int64_t count)
{
    AGENTSIM_ASSERT(blockSize_ > 0, "append to a placeholder chain");
    AGENTSIM_ASSERT(offset >= 0 && count >= 0, "stream run %lld+%lld",
                    static_cast<long long>(offset),
                    static_cast<long long>(count));
    if (count == 0)
        return;
    if (!continuesRun(stream, offset)) {
        closeRun();
        hasRun_ = true;
        runStream_ = stream;
        runNext_ = static_cast<std::uint64_t>(offset);
        runX_ = gf::mul(gf::streamScale(stream),
                        gf::powG(static_cast<std::uint64_t>(offset)));
    }
    runNext_ += static_cast<std::uint64_t>(count);

    std::int64_t left = count;
    const int space = blockSize_ - tailLen_;
    if (left < space) {
        runLen_ += static_cast<int>(left);
        tailLen_ += static_cast<int>(left);
        return;
    }
    // Fill the partial block, then whole blocks of the run alone.
    runLen_ += space;
    left -= space;
    closeRun();
    seal(tailPoly_);
    if (left >= blockSize_) {
        const RunCoeffs c = runCoeffs(blockSize_);
        const std::uint64_t shift =
            gf::mul(gf::streamShift(runStream_), c.cr);
        for (; left >= blockSize_; left -= blockSize_) {
            seal(gf::add(gf::mul(runX_, c.cg), shift));
            runX_ = gf::mul(runX_, c.gk);
        }
    }
    runLen_ = static_cast<int>(left);
    tailLen_ = runLen_;
}

std::uint64_t
TokenChain::tailPoly() const
{
    if (runLen_ == 0)
        return tailPoly_;
    const RunCoeffs c = runCoeffs(runLen_);
    return gf::add(gf::mul(tailPoly_, c.rk),
                   gf::add(gf::mul(runX_, c.cg),
                           gf::mul(gf::streamShift(runStream_), c.cr)));
}

void
TokenChain::closeRun()
{
    if (runLen_ == 0)
        return;
    tailPoly_ = tailPoly();
    runX_ = gf::mul(runX_, runCoeffs(runLen_).gk);
    runLen_ = 0;
}

void
TokenChain::seal(std::uint64_t poly)
{
    const std::uint64_t prev = hashes_.empty() ? 0 : hashes_.back();
    hashes_.push_back(sim::hashCombine(blockSeed(prev), poly));
    tailPoly_ = 0;
    tailLen_ = 0;
}

bool
TokenChain::operator==(const TokenChain &other) const
{
    return blockSize_ == other.blockSize_ && tailLen_ == other.tailLen_ &&
           hashes_ == other.hashes_ && tailPoly() == other.tailPoly();
}

} // namespace agentsim::kv
