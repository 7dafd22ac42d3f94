#include "stats/hdr_histogram.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace agentsim::stats
{

namespace
{

bool
exemplarWeaker(const HdrExemplar &a, const HdrExemplar &b)
{
    // Min-heap on value so the weakest retained exemplar sits at the
    // root; on equal values prefer evicting the later arrival (higher
    // insertion order is not tracked, so equal values stay stable via
    // strict comparison).
    return a.value > b.value;
}

} // namespace

HdrHistogram::HdrHistogram(double min_value, double max_value,
                           double rel_error, std::size_t max_exemplars)
    : minValue_(min_value), maxValue_(max_value),
      maxExemplars_(max_exemplars)
{
    AGENTSIM_ASSERT(min_value > 0.0, "hdr floor must be positive");
    AGENTSIM_ASSERT(max_value > min_value, "hdr range must be non-empty");
    AGENTSIM_ASSERT(rel_error > 0.0 && rel_error <= 0.5,
                    "hdr relative error must lie in (0, 0.5]");
    subBuckets_ = static_cast<std::size_t>(
        std::ceil(1.0 / (2.0 * rel_error)));
    const auto octaves = static_cast<std::size_t>(
        std::ceil(std::log2(max_value / min_value)));
    counts_.assign((octaves + 1) * subBuckets_, 0);
    if (maxExemplars_ > 0)
        exemplars_.reserve(maxExemplars_);
}

std::size_t
HdrHistogram::bucketIndex(double x) const
{
    if (x <= minValue_)
        return 0;
    const double ratio = x / minValue_;
    const auto octave =
        static_cast<std::size_t>(std::floor(std::log2(ratio)));
    const double base = std::ldexp(1.0, static_cast<int>(octave));
    auto sub = static_cast<std::size_t>(
        (ratio / base - 1.0) * static_cast<double>(subBuckets_));
    sub = std::min(sub, subBuckets_ - 1);
    return std::min(octave * subBuckets_ + sub, counts_.size() - 1);
}

void
HdrHistogram::addWeighted(double x, std::size_t weight, std::uint64_t id)
{
    if (weight == 0)
        return;
    // Values beyond the configured ceiling saturate into the top
    // bucket (and are tallied) rather than being dropped: quantiles
    // then under-report the extreme tail at a known place instead of
    // silently excluding it. min/max/sum/mean stay exact.
    if (x > maxValue_)
        overflow_ += weight;
    if (total_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    counts_[bucketIndex(std::min(x, maxValue_))] += weight;
    total_ += weight;
    sum_ += x * static_cast<double>(weight);
    // Once maxExemplars_ copies of x were offered, every retained
    // exemplar is at least x and a further copy is a no-op.
    for (std::size_t i = 0; i < std::min(weight, maxExemplars_); ++i)
        offerExemplar(x, id);
}

void
HdrHistogram::offerExemplar(double x, std::uint64_t id)
{
    if (maxExemplars_ == 0)
        return;
    if (exemplars_.size() < maxExemplars_) {
        exemplars_.push_back({x, id});
        std::push_heap(exemplars_.begin(), exemplars_.end(),
                       exemplarWeaker);
        return;
    }
    if (x <= exemplars_.front().value)
        return; // weaker than everything retained
    std::pop_heap(exemplars_.begin(), exemplars_.end(), exemplarWeaker);
    exemplars_.back() = {x, id};
    std::push_heap(exemplars_.begin(), exemplars_.end(), exemplarWeaker);
}

double
HdrHistogram::binLow(std::size_t i) const
{
    const std::size_t octave = i / subBuckets_;
    const std::size_t sub = i % subBuckets_;
    const double base =
        minValue_ * std::ldexp(1.0, static_cast<int>(octave));
    return base * (1.0 + static_cast<double>(sub) /
                             static_cast<double>(subBuckets_));
}

double
HdrHistogram::binHigh(std::size_t i) const
{
    const std::size_t octave = i / subBuckets_;
    const std::size_t sub = i % subBuckets_;
    const double base =
        minValue_ * std::ldexp(1.0, static_cast<int>(octave));
    return base * (1.0 + static_cast<double>(sub + 1) /
                             static_cast<double>(subBuckets_));
}

double
HdrHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    AGENTSIM_ASSERT(q >= 0.0 && q <= 1.0, "quantile outside [0, 1]");
    if (q <= 0.0)
        return min_;
    if (q >= 1.0)
        return max_;
    const auto rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(total_))));
    std::size_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank) {
            // Midpoint of the bucket, clamped to the observed range
            // so sparse tails never report beyond the recorded max.
            const double mid = 0.5 * (binLow(i) + binHigh(i));
            return std::clamp(mid, min_, max_);
        }
    }
    return max_;
}

std::vector<HdrExemplar>
HdrHistogram::tailExemplars() const
{
    std::vector<HdrExemplar> out = exemplars_;
    std::sort(out.begin(), out.end(),
              [](const HdrExemplar &a, const HdrExemplar &b) {
                  return a.value > b.value;
              });
    return out;
}

std::string
HdrHistogram::render(std::size_t width) const
{
    std::string out;
    if (total_ == 0)
        return out;
    // Collapse to one row per octave-quarter so the chart stays
    // readable at tight error bounds (m can be 50+ sub-buckets).
    const std::size_t group = std::max<std::size_t>(1, subBuckets_ / 4);
    std::size_t first = counts_.size();
    std::size_t last = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] > 0) {
            first = std::min(first, i);
            last = std::max(last, i);
        }
    }
    first = (first / group) * group;
    std::size_t peak = 0;
    for (std::size_t i = first; i <= last; i += group) {
        std::size_t row = 0;
        for (std::size_t j = i; j < std::min(i + group, counts_.size());
             ++j)
            row += counts_[j];
        peak = std::max(peak, row);
    }
    char line[160];
    for (std::size_t i = first; i <= last; i += group) {
        std::size_t row = 0;
        for (std::size_t j = i; j < std::min(i + group, counts_.size());
             ++j)
            row += counts_[j];
        const std::size_t hi_bucket =
            std::min(i + group, counts_.size()) - 1;
        const auto bar = static_cast<std::size_t>(
            peak > 0 ? row * width / peak : 0);
        std::snprintf(line, sizeof line, "  [%8.3f, %8.3f) %6zu |",
                      binLow(i), binHigh(hi_bucket), row);
        out += line;
        out.append(bar, '#');
        out += '\n';
    }
    if (overflow_ > 0) {
        std::snprintf(line, sizeof line, "  overflow %6zu\n",
                      overflow_);
        out += line;
    }
    return out;
}

} // namespace agentsim::stats
