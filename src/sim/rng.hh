/**
 * @file
 * Deterministic random-number streams.
 *
 * Every stochastic component of the simulator draws from a named Rng
 * stream derived from a global seed, so that experiments are exactly
 * reproducible and components are statistically independent of one
 * another (adding draws to one stream never perturbs another).
 *
 * The generator is xoshiro256**, seeded via SplitMix64 from an FNV-1a
 * hash of (global seed, stream name, stream index).
 *
 * An Rng is a plain value with no shared or global state. The draw
 * *order within one stream* is part of the determinism contract
 * (docs/DETERMINISM.md); keep a stream owned by exactly one
 * coroutine/process and give new consumers their own named stream
 * instead of sharing one.
 */

#ifndef AGENTSIM_SIM_RNG_HH
#define AGENTSIM_SIM_RNG_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace agentsim::sim
{

/** 64-bit FNV-1a hash of a byte string. */
constexpr std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Mix a 64-bit value into a hash (splitmix64 finalizer). */
constexpr std::uint64_t
hashMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit hashes. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return hashMix(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/**
 * A deterministic pseudo-random stream (xoshiro256**).
 *
 * Cheap to construct; copyable. Confine each instance to one process
 * (see the file comment).
 */
class Rng
{
  public:
    /** Construct from a raw 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /**
     * Construct a named stream: hash(globalSeed, name, index).
     *
     * @param global_seed experiment-wide seed.
     * @param name stable component name, e.g. "tool.wikipedia".
     * @param index per-instance discriminator (task id, request id...).
     */
    Rng(std::uint64_t global_seed, std::string_view name,
        std::uint64_t index = 0);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** Exponential with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with mean mu and standard deviation sigma. */
    double normal(double mu, double sigma);

    /**
     * Lognormal parameterized by its *arithmetic mean* and the sigma of
     * the underlying normal; convenient for "mean 1.2 s, heavy tail"
     * style tool-latency models.
     */
    double lognormalMean(double mean, double sigma);

    /** Sample an index proportional to non-negative weights. */
    std::size_t categorical(const std::vector<double> &weights);

    /** Poisson sample with the given mean (Knuth for small, normal
     *  approximation for large means). */
    std::int64_t poisson(double mean);

  private:
    std::array<std::uint64_t, 4> s_;
    /** Cached second Box-Muller variate. */
    double spare_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace agentsim::sim

#endif // AGENTSIM_SIM_RNG_HH
