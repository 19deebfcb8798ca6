/**
 * @file
 * Deterministic pseudo-random number generation for simulation.
 *
 * A self-contained xoshiro256** implementation is used instead of
 * std::mt19937 so that simulation results are bit-identical across
 * standard-library implementations. Distribution helpers cover the
 * needs of the traffic generators (uniform, Bernoulli, bounded Pareto,
 * exponential, geometric).
 */

#ifndef NOX_COMMON_RNG_HPP
#define NOX_COMMON_RNG_HPP

#include <array>
#include <bit>
#include <cstdint>

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/**
 * xoshiro256** PRNG (Blackman & Vigna). Fast, 256-bit state, and good
 * statistical quality for simulation purposes (not cryptographic).
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed in place (same expansion as the constructor). */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bias-free via rejection. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in (0, 1] — safe as log() argument. */
    double nextDoubleOpen();

    /** Bernoulli trial with probability p of returning true. */
    bool nextBernoulli(double p);

    /**
     * The integer form of a probability @p p in (0, 1):
     * ceil(p * 2^53). nextDouble() < p holds exactly when the 53 high
     * bits of the same draw are below it, so nextBelow() on this
     * value is nextBernoulli(p), draw for draw.
     */
    static std::uint64_t threshold53(double p);

    /** One trial against a threshold53() value. */
    bool nextBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Pareto-distributed value with shape @p alpha and minimum
     * (scale) @p xmin. Mean is alpha*xmin/(alpha-1) for alpha > 1.
     */
    double nextPareto(double alpha, double xmin);

    /** Exponentially distributed value with the given mean. */
    double nextExponential(double mean);

    /** Geometric number of failures before first success, P(succ)=p. */
    std::uint64_t nextGeometric(double p);

    /**
     * Split off an independent stream: hashes this generator's next
     * output with @p salt so per-node generators do not correlate.
     */
    Rng split(std::uint64_t salt);

    /** Capture / restore the full 256-bit state (checkpointing). */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    std::array<std::uint64_t, 4> s_;
};

/** splitmix64 step, also useful as a cheap 64-bit hash. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Stateless 64-bit mix (finalizer of splitmix64). */
std::uint64_t mix64(std::uint64_t x);

} // namespace nox

#endif // NOX_COMMON_RNG_HPP
