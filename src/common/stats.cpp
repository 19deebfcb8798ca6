#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

void
SampleStats::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
SampleStats::merge(const SampleStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
SampleStats::reset()
{
    *this = SampleStats();
}

double
SampleStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
SampleStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double bucket_width, std::size_t num_buckets,
                     bool auto_widen)
    : width_(bucket_width), autoWiden_(auto_widen),
      counts_(num_buckets, 0)
{
    NOX_ASSERT(bucket_width > 0.0 && num_buckets > 0,
               "invalid histogram shape");
}

void
Histogram::widen()
{
    const std::size_t n = counts_.size();
    const std::size_t keep = (n + 1) / 2;
    for (std::size_t i = 0; i < keep; ++i)
        counts_[i] = counts_[2 * i] +
                     (2 * i + 1 < n ? counts_[2 * i + 1] : 0);
    std::fill(counts_.begin() + static_cast<std::ptrdiff_t>(keep),
              counts_.end(), 0);
    width_ *= 2.0;
    ++widenings_;
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < 0.0)
        x = 0.0;
    if (autoWiden_) {
        while (x / width_ >= static_cast<double>(counts_.size()))
            widen();
    }
    const auto idx = static_cast<std::size_t>(x / width_);
    if (idx >= counts_.size()) {
        ++overflow_;
    } else {
        ++counts_[idx];
    }
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

double
Histogram::quantile(double p) const
{
    if (total_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cum + static_cast<double>(counts_[i]);
        if (next >= target && counts_[i] > 0) {
            const double frac =
                (target - cum) / static_cast<double>(counts_[i]);
            return (static_cast<double>(i) + frac) * width_;
        }
        cum = next;
    }
    return width_ * static_cast<double>(counts_.size());
}

template <typename Ar, typename Self>
void
SampleStats::layout(Ar &ar, Self &self)
{
    snap::fields(ar, self.n_, self.mean_, self.m2_, self.min_, self.max_);
}

void
SampleStats::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
SampleStats::restore(snap::Reader &r)
{
    layout(r, *this);
}

template <typename Ar, typename Self>
void
Histogram::layout(Ar &ar, Self &self)
{
    snap::fields(ar, self.width_, self.widenings_);
    snap::ioExpect(ar, std::uint64_t{self.counts_.size()},
                   "histogram bucket-count mismatch (wrong geometry)");
    for (auto &c : self.counts_)
        snap::io(ar, c);
    snap::fields(ar, self.overflow_, self.total_);
}

void
Histogram::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
Histogram::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
