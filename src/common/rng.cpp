#include "common/rng.hpp"

#include <cmath>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mix64(std::uint64_t x)
{
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s_)
        word = splitmix64(sm);
    // All-zero state is invalid for xoshiro; splitmix64 cannot produce
    // four zero outputs in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    NOX_ASSERT(bound > 0, "nextBounded requires bound > 0");
    // Lemire-style rejection to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    NOX_ASSERT(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1ULL;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextDouble()
{
    // 53 high bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextDoubleOpen()
{
    return 1.0 - nextDouble();
}

bool
Rng::nextBernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Rng::threshold53(double p)
{
    NOX_ASSERT(p > 0.0 && p < 1.0, "threshold53 needs p in (0, 1)");
    // Scaling by 2^53 is exact, and an integer is below a real
    // exactly when it is below the real's ceiling.
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

double
Rng::nextPareto(double alpha, double xmin)
{
    NOX_ASSERT(alpha > 0.0 && xmin > 0.0, "invalid Pareto parameters");
    const double u = nextDoubleOpen();
    return xmin / std::pow(u, 1.0 / alpha);
}

double
Rng::nextExponential(double mean)
{
    NOX_ASSERT(mean > 0.0, "invalid exponential mean");
    return -mean * std::log(nextDoubleOpen());
}

std::uint64_t
Rng::nextGeometric(double p)
{
    NOX_ASSERT(p > 0.0 && p <= 1.0, "invalid geometric probability");
    if (p >= 1.0)
        return 0;
    const double u = nextDoubleOpen();
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

Rng
Rng::split(std::uint64_t salt)
{
    return Rng(mix64(next() ^ mix64(salt)));
}

void
Rng::serialize(snap::Writer &w) const
{
    snap::io(w, s_);
}

void
Rng::restore(snap::Reader &r)
{
    snap::io(r, s_);
}

} // namespace nox
