/**
 * @file
 * Statistics primitives used by the simulator and benchmarks.
 *
 * SampleStats accumulates streaming mean/variance/min/max (Welford);
 * Histogram buckets samples for percentile queries.
 */

#ifndef NOX_COMMON_STATS_HPP
#define NOX_COMMON_STATS_HPP

#include <cstdint>
#include <limits>
#include <vector>

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/** Streaming sample statistics (Welford's online algorithm). */
class SampleStats
{
  public:
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const SampleStats &other);

    void reset();

    std::uint64_t count() const { return n_; }
    double sum() const { return mean_ * static_cast<double>(n_); }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Exact (bit-level) accumulator equality — used by the kernel
     *  equivalence checks, where "close" is not good enough. */
    bool identicalTo(const SampleStats &other) const
    {
        return n_ == other.n_ && mean_ == other.mean_ &&
               m2_ == other.m2_ && min_ == other.min_ &&
               max_ == other.max_;
    }

    /** Bit-exact accumulator capture / restore (checkpointing). */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width bucket histogram over [0, bucketWidth*numBuckets), with
 * an overflow bucket. Supports approximate percentile queries.
 *
 * With auto_widen the range grows to fit the data: a sample past the
 * upper bound merges adjacent bucket pairs (doubling the bucket width,
 * keeping the bucket count) until it fits. Widening is a pure function
 * of the sample sequence, so identicalTo() still certifies identical
 * histories across runs. Resolution degrades gracefully — quantiles of
 * a widened histogram are coarser, never silently clipped.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, std::size_t num_buckets,
              bool auto_widen = false);

    void add(double x);
    void reset();

    std::uint64_t count() const { return total_; }
    double bucketWidth() const { return width_; }
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t overflowCount() const { return overflow_; }

    /** Times the bucket width has doubled to fit a sample. */
    std::uint32_t widenings() const { return widenings_; }

    /**
     * Approximate p-quantile (0 <= p <= 1) via linear interpolation
     * inside the containing bucket. Returns the histogram upper bound
     * if the quantile falls in the overflow bucket.
     */
    double quantile(double p) const;

    /** quantile() with p in percent (50 -> median, 99 -> p99). */
    double percentile(double pct) const { return quantile(pct / 100.0); }

    /** Exact equality of geometry and every bucket count. */
    bool identicalTo(const Histogram &other) const
    {
        return width_ == other.width_ && counts_ == other.counts_ &&
               overflow_ == other.overflow_ && total_ == other.total_;
    }

    /** Capture / restore counts and widening state (checkpointing).
     *  Bucket count and auto-widen flag are construction geometry and
     *  must already match; restore() checks and throws otherwise. */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** Merge adjacent bucket pairs: same bucket count, double width. */
    void widen();

    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    double width_;
    bool autoWiden_ = false;
    std::uint32_t widenings_ = 0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace nox

#endif // NOX_COMMON_STATS_HPP
