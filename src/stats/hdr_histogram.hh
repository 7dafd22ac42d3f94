/**
 * @file
 * Log-linear (HDR-style) histogram with a bounded relative error and
 * tail-bucket exemplars.
 *
 * Buckets are laid out in powers-of-two octaves above a configured
 * floor, with m equal-width sub-buckets per octave. A value v in
 * octave e lands in a sub-bucket of width 2^e / m, and since v >= 2^e
 * the bucket's relative width is at most 1/m — so reporting the
 * bucket midpoint is within 1/(2m) of the true value. The constructor
 * takes the desired relative error and derives m = ceil(1 / (2 eps)),
 * which keeps quantile queries within eps across the whole dynamic
 * range using O(octaves * m) memory, unlike the fixed-bin
 * stats::Histogram whose error grows with the range.
 *
 * Tail exemplars: observations may carry an id (a request/span key).
 * The histogram retains the top-K observations by value, so a p99
 * bucket can name the concrete requests that landed in it.
 */

#ifndef AGENTSIM_STATS_HDR_HISTOGRAM_HH
#define AGENTSIM_STATS_HDR_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace agentsim::stats
{

/** One retained tail observation (value + caller-supplied id). */
struct HdrExemplar {
    double value = 0.0;
    std::uint64_t id = 0;
};

class HdrHistogram
{
  public:
    /**
     * @param min_value smallest distinguishable value (> 0); smaller
     *        positive observations clamp into the first bucket.
     * @param max_value largest trackable value (> min_value); larger
     *        observations saturate into the top bucket and are
     *        tallied by overflow().
     * @param rel_error bound on the relative quantile error in
     *        (0, 0.5]; e.g. 0.01 keeps every quantile within 1%.
     * @param max_exemplars top-K observations (by value) retained
     *        with their ids; 0 disables exemplar tracking.
     */
    HdrHistogram(double min_value, double max_value, double rel_error,
                 std::size_t max_exemplars = 0);

    /** Record one observation (id links back to a request/span). */
    void add(double x, std::uint64_t id = 0) { addWeighted(x, 1, id); }

    /**
     * Record @p weight observations of @p x at once: bins, count,
     * min, max, overflow, quantiles and exemplars end as after
     * @p weight calls of add(x, id); sum() adds x * weight, which can
     * differ from repeated addition in the last bits.
     */
    void addWeighted(double x, std::size_t weight, std::uint64_t id = 0);

    std::size_t count() const { return total_; }
    std::size_t overflow() const { return overflow_; }
    double sum() const { return sum_; }
    double min() const { return total_ > 0 ? min_ : 0.0; }
    double max() const { return total_ > 0 ? max_ : 0.0; }
    double mean() const
    {
        return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0;
    }

    /**
     * Type-1 empirical quantile @p q in [0, 1], reported as the
     * midpoint of the bucket holding that rank (within relError() of
     * the true order statistic). Recorded min/max are exact.
     */
    double quantile(double q) const;

    /** Configured relative-error bound (<= the requested one). */
    double relError() const { return 0.5 / static_cast<double>(subBuckets_); }

    std::size_t buckets() const { return counts_.size(); }
    std::size_t binCount(std::size_t i) const { return counts_[i]; }
    /** Inclusive lower edge of bucket @p i. */
    double binLow(std::size_t i) const;
    /** Exclusive upper edge of bucket @p i. */
    double binHigh(std::size_t i) const;

    /**
     * Retained top-K observations, largest value first. Ties keep the
     * earlier observation.
     */
    std::vector<HdrExemplar> tailExemplars() const;

    /**
     * ASCII bar chart over the occupied bucket range (one row per
     * non-empty coarse row, like stats::Histogram::render), used by
     * the distribution figures.
     */
    std::string render(std::size_t width = 50) const;

  private:
    double minValue_;
    double maxValue_;
    std::size_t subBuckets_; ///< m: sub-buckets per power-of-two octave.
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
    std::size_t overflow_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;

    std::size_t maxExemplars_;
    /** Min-heap on value: the weakest retained exemplar is at [0]. */
    std::vector<HdrExemplar> exemplars_;

    std::size_t bucketIndex(double x) const;
    void offerExemplar(double x, std::uint64_t id);
};

} // namespace agentsim::stats

#endif // AGENTSIM_STATS_HDR_HISTOGRAM_HH
