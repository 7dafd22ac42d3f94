#include "kv/token_chain.hh"

#include "sim/logging.hh"

namespace agentsim::kv
{

TokenChain::TokenChain(int block_size)
    : blockSize_(block_size), tailHash_(blockSeed(0))
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
    for (const TokenId t : tokens)
        fold(t);
}

void
TokenChain::appendStream(std::uint64_t stream, std::int64_t offset,
                         std::int64_t count)
{
    AGENTSIM_ASSERT(blockSize_ > 0, "append to a placeholder chain");
    AGENTSIM_ASSERT(offset >= 0 && count >= 0, "stream run %lld+%lld",
                    static_cast<long long>(offset),
                    static_cast<long long>(count));
    const auto end = static_cast<std::uint64_t>(offset + count);
    for (auto i = static_cast<std::uint64_t>(offset); i < end; ++i)
        fold(tokenAt(stream, i));
}

void
TokenChain::push_back(TokenId token)
{
    AGENTSIM_ASSERT(blockSize_ > 0, "append to a placeholder chain");
    fold(token);
}

} // namespace agentsim::kv
