/** @file Unit tests for the xoshiro256** RNG and its distributions. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"

namespace nox {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const auto first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBounded(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng r(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliRate)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate)
{
    Rng r(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBernoulli(0.0));
        EXPECT_TRUE(r.nextBernoulli(1.0));
    }
}

TEST(Rng, DegenerateBernoulliDrawsNothing)
{
    for (double p : {0.0, -0.5, 1.0, 1.5}) {
        Rng a(29), b(29);
        a.nextBernoulli(p);
        EXPECT_EQ(a.next(), b.next()) << "p=" << p;
    }
}

/** nextBelow(threshold53(p)) against nextBernoulli(p) on twin
 *  streams: the same outcome at every draw, and the same stream. */
void
expectThresholdDrawMatches(double p, std::uint64_t seed, int draws)
{
    Rng a(seed), b(seed);
    const std::uint64_t threshold = Rng::threshold53(p);
    for (int i = 0; i < draws; ++i)
        ASSERT_EQ(a.nextBelow(threshold), b.nextBernoulli(p))
            << "p=" << p << " draw " << i;
    EXPECT_EQ(a.next(), b.next()) << "p=" << p;
}

TEST(Rng, ThresholdDrawIsNextBernoulli)
{
    const double kEdgeCases[] = {
        0x1p-1074, // the smallest subnormal
        1e-300,    0x1p-60, 0x1p-53, 3e-9, 0.25, 0.5, 0.3, 0.7,
        1.0 - 0x1p-53, // the largest double below 1
    };
    for (double p : kEdgeCases) {
        expectThresholdDrawMatches(p, 31, 5000);
        // The predicate at the integers around the threshold, which
        // random draws almost never reach: x < ceil(p * 2^53) exactly
        // when x * 2^-53 < p.
        const std::uint64_t t = Rng::threshold53(p);
        for (std::uint64_t x = t > 2 ? t - 2 : 0;
             x <= t + 2 && x < (std::uint64_t{1} << 53); ++x) {
            EXPECT_EQ(x < t, static_cast<double>(x) * 0x1.0p-53 < p)
                << "p=" << p << " x=" << x;
        }
    }
    Rng pick(37);
    for (int i = 0; i < 200; ++i) {
        const double p = pick.nextDouble();
        if (p > 0.0)
            expectThresholdDrawMatches(p, 41 + static_cast<unsigned>(i),
                                       500);
    }
}

TEST(Rng, ParetoMinimumRespected)
{
    Rng r(23);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.nextPareto(1.4, 8.0), 8.0);
}

TEST(Rng, ParetoMeanMatchesTheory)
{
    // Mean of Pareto(alpha, xmin) is alpha*xmin/(alpha-1) for alpha>1.
    // alpha=1.4 has heavy tails, so use the paper's parameters but a
    // large sample and a loose tolerance.
    Rng r(29);
    double sum = 0.0;
    const int n = 2000000;
    for (int i = 0; i < n; ++i)
        sum += r.nextPareto(1.4, 8.0);
    const double expected = 1.4 * 8.0 / 0.4;
    EXPECT_NEAR(sum / n, expected, expected * 0.10);
}

TEST(Rng, ExponentialMean)
{
    Rng r(31);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.nextExponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, GeometricMean)
{
    // Mean number of failures is (1-p)/p.
    Rng r(37);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.nextGeometric(0.25));
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng base(41);
    Rng a = base.split(1);
    Rng b = base.split(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, Mix64IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(1), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
    // Low bits of input affect high bits of output.
    EXPECT_NE(mix64(1) >> 32, mix64(2) >> 32);
}

} // namespace
} // namespace nox
