/** @file Unit tests for statistics primitives. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace nox {
namespace {

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SampleStats, KnownValues)
{
    SampleStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(SampleStats, MergeEqualsCombined)
{
    SampleStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleStats, MergeWithEmpty)
{
    SampleStats a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b); // no-op
    EXPECT_EQ(a.count(), 2u);
    b.merge(a); // copy
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleStats, ResetClears)
{
    SampleStats s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(1.0, 4); // [0,1) [1,2) [2,3) [3,4) + overflow
    h.add(0.5);
    h.add(1.5);
    h.add(1.9);
    h.add(3.99);
    h.add(10.0);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
}

TEST(Histogram, NegativeClampsToZeroBucket)
{
    Histogram h(1.0, 2);
    h.add(-5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Histogram, QuantileMedian)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.quantile(0.95), 95.0, 1.0);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, QuantileInOverflowReturnsUpperBound)
{
    Histogram h(1.0, 2);
    h.add(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(1.0, 2);
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Histogram, AutoWidenDoublesWidthInsteadOfOverflowing)
{
    Histogram h(1.0, 4, true); // [0,4) initially
    h.add(0.5);
    h.add(1.5);
    h.add(3.5);
    EXPECT_EQ(h.widenings(), 0u);

    // 10.0 needs [0,16): two widenings, width 1 -> 4.
    h.add(10.0);
    EXPECT_EQ(h.widenings(), 2u);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 4.0);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_EQ(h.count(), 4u);
    // Old buckets merged pairwise twice: [0,4) holds the first three
    // samples, [8,12) holds the new one.
    EXPECT_EQ(h.bucketCount(0), 3u);
    EXPECT_EQ(h.bucketCount(2), 1u);
}

TEST(Histogram, AutoWidenPreservesTotalAndQuantileOrder)
{
    Histogram h(1.0, 8, true);
    for (int i = 0; i < 1000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_GT(h.widenings(), 0u);
    // Quantiles stay monotone and in range despite coarser buckets.
    const double p50 = h.percentile(50);
    const double p95 = h.percentile(95);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_NEAR(p50, 500.0, h.bucketWidth());
    EXPECT_NEAR(p99, 990.0, h.bucketWidth());
}

TEST(Histogram, AutoWidenIsDeterministic)
{
    // identicalTo() must keep certifying equal histories when the
    // same samples arrive in the same order (the kernel-equivalence
    // contract covers the auto-widened latency histogram).
    Histogram a(1.0, 16, true), b(1.0, 16, true);
    for (int i = 0; i < 300; ++i) {
        const double x = static_cast<double>((i * 37) % 977);
        a.add(x);
        b.add(x);
    }
    EXPECT_TRUE(a.identicalTo(b));
    EXPECT_EQ(a.widenings(), b.widenings());
}

TEST(Histogram, FixedShapeStillOverflowsWithoutAutoWiden)
{
    Histogram h(1.0, 4);
    h.add(100.0);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.widenings(), 0u);
}

TEST(Histogram, PercentileMatchesQuantile)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(50), h.quantile(0.5));
    EXPECT_DOUBLE_EQ(h.percentile(99), h.quantile(0.99));
}

TEST(Histogram, QuantileOfEmptyIsZero)
{
    Histogram h(1.0, 8);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(Histogram, QuantileClampsOutOfRangeP)
{
    Histogram h(1.0, 4);
    h.add(0.5);
    h.add(2.5);
    EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, SingleBucketQuantilesStayInRange)
{
    Histogram h(4.0, 1); // one bucket [0,4) plus overflow
    for (int i = 0; i < 10; ++i)
        h.add(1.0);
    EXPECT_EQ(h.overflowCount(), 0u);
    for (double p : {0.1, 0.5, 0.9}) {
        const double q = h.quantile(p);
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 4.0);
    }
    // p=1 interpolates to the bucket's upper edge.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
    // A quantile landing in the overflow bucket reports the histogram
    // upper bound — never a value the histogram cannot resolve.
    h.add(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, QuantileMonotoneInP)
{
    Histogram h(1.0, 16);
    for (int i = 0; i < 200; ++i)
        h.add(static_cast<double>((i * 7) % 16));
    double prev = -1.0;
    for (int pct = 0; pct <= 100; pct += 5) {
        const double q = h.percentile(pct);
        EXPECT_GE(q, prev) << "pct " << pct;
        prev = q;
    }
}

TEST(Histogram, QuantileStableAcrossAutoWiden)
{
    // Widening coarsens resolution but must not move an existing
    // quantile by more than one post-widen bucket width, and must
    // never spill samples into the overflow bucket.
    Histogram h(1.0, 8, true);
    for (int i = 0; i < 64; ++i)
        h.add(static_cast<double>(i % 8));
    const double before50 = h.quantile(0.5);
    const double before90 = h.quantile(0.9);
    h.add(100.0); // forces several widenings
    EXPECT_GT(h.widenings(), 0u);
    EXPECT_EQ(h.count(), 65u);
    EXPECT_EQ(h.overflowCount(), 0u);
    const double w = h.bucketWidth();
    EXPECT_NEAR(h.quantile(0.5), before50, w);
    EXPECT_NEAR(h.quantile(0.9), before90, w);
}

} // namespace
} // namespace nox
