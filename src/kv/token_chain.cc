#include "kv/token_chain.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace agentsim::kv
{

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

std::uint64_t
TokenChain::chunkHash(std::uint64_t prev_hash,
                      std::span<const TokenId> chunk)
{
    std::uint64_t h = sim::hashMix(prev_hash ^ 0x9d5a3f7c1e284b69ULL);
    for (TokenId t : chunk)
        h = sim::hashCombine(h, t);
    return h;
}

void
TokenChain::sealBlock()
{
    const std::uint64_t prev = hashes_.empty() ? 0 : hashes_.back();
    hashes_.push_back(chunkHash(prev, tail_));
    tail_.clear();
}

void
TokenChain::append(std::span<const TokenId> tokens)
{
    AGENTSIM_ASSERT(blockSize_ > 0, "append to a placeholder chain");
    const auto bs = static_cast<std::size_t>(blockSize_);
    size_ += static_cast<std::int64_t>(tokens.size());

    // Top up the partial block first.
    if (!tail_.empty()) {
        const std::size_t take =
            std::min(bs - tail_.size(), tokens.size());
        tail_.insert(tail_.end(), tokens.begin(),
                     tokens.begin() + static_cast<std::ptrdiff_t>(take));
        tokens = tokens.subspan(take);
        if (tail_.size() < bs)
            return;
        sealBlock();
    }
    // Whole blocks hash straight from the input.
    std::uint64_t prev = hashes_.empty() ? 0 : hashes_.back();
    for (; tokens.size() >= bs; tokens = tokens.subspan(bs)) {
        prev = chunkHash(prev, tokens.first(bs));
        hashes_.push_back(prev);
    }
    tail_.assign(tokens.begin(), tokens.end());
}

void
TokenChain::push_back(TokenId token)
{
    AGENTSIM_ASSERT(blockSize_ > 0, "append to a placeholder chain");
    tail_.push_back(token);
    ++size_;
    if (tail_.size() == static_cast<std::size_t>(blockSize_))
        sealBlock();
}

} // namespace agentsim::kv
