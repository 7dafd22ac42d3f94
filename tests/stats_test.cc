/**
 * @file
 * Unit tests for the statistics library.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/gauge.hh"
#include "stats/hdr_histogram.hh"
#include "stats/histogram.hh"
#include "stats/pareto.hh"
#include "stats/quantile.hh"
#include "stats/summary.hh"
#include "sim/rng.hh"

namespace
{

using namespace agentsim;
using stats::DesignPoint;
using stats::Histogram;
using stats::SampleSet;
using stats::Summary;
using stats::TimeWeightedGauge;

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    // Population variance is 4; sample variance is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Summary, EmptyIsSafe)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombinedStream)
{
    Summary a;
    Summary b;
    Summary combined;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        combined.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(SampleSet, PercentilesInterpolate)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
    EXPECT_DOUBLE_EQ(s.median(), s.percentile(50));
}

TEST(SampleSet, SingleSample)
{
    SampleSet s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.percentile(0), 3.5);
    EXPECT_DOUBLE_EQ(s.percentile(50), 3.5);
    EXPECT_DOUBLE_EQ(s.percentile(100), 3.5);
}

TEST(SampleSet, InsertionAfterQueryResorts)
{
    SampleSet s;
    s.add(10.0);
    s.add(20.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
    s.add(30.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);
}

TEST(SampleSet, MeanStdDev)
{
    SampleSet s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Histogram, BinningAndEdges)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.0);   // bin 0
    h.add(1.99);  // bin 0
    h.add(2.0);   // bin 1
    h.add(9.99);  // bin 4
    h.add(10.0);  // overflow
    h.add(-0.1);  // underflow
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHigh(1), 4.0);
    EXPECT_NEAR(h.binFraction(0), 2.0 / 6.0, 1e-12);
}

TEST(Histogram, RenderContainsBars)
{
    Histogram h(0.0, 4.0, 2);
    h.add(1.0);
    h.add(1.5);
    h.add(3.0);
    const auto text = h.render(10);
    EXPECT_NE(text.find('#'), std::string::npos);
    EXPECT_NE(text.find('|'), std::string::npos);
}

TEST(Gauge, TimeWeightedAverage)
{
    TimeWeightedGauge g;
    g.set(0, 10.0);
    g.set(100, 20.0); // value 10 held for 100 ticks
    g.set(200, 0.0);  // value 20 held for 100 ticks
    // Average over [0, 400]: (10*100 + 20*100 + 0*200) / 400 = 7.5
    EXPECT_DOUBLE_EQ(g.average(400), 7.5);
    EXPECT_DOUBLE_EQ(g.max(), 20.0);
    EXPECT_DOUBLE_EQ(g.current(), 0.0);
}

TEST(Gauge, AdjustAccumulates)
{
    TimeWeightedGauge g;
    g.set(0, 0.0);
    g.adjust(10, 5.0);
    g.adjust(20, 5.0);
    g.adjust(30, -3.0);
    EXPECT_DOUBLE_EQ(g.current(), 7.0);
    EXPECT_DOUBLE_EQ(g.max(), 10.0);
}

TEST(Gauge, IntegralAccumulates)
{
    TimeWeightedGauge g;
    g.set(0, 4.0);
    g.set(100, 2.0);
    EXPECT_DOUBLE_EQ(g.integral(100), 400.0);
    EXPECT_DOUBLE_EQ(g.integral(150), 400.0 + 2.0 * 50.0);
}

TEST(Gauge, MarkResetsWindowMax)
{
    TimeWeightedGauge g;
    g.set(0, 10.0);
    g.set(10, 3.0);
    g.mark();
    EXPECT_DOUBLE_EQ(g.maxSinceMark(), 3.0);
    g.set(20, 7.0);
    EXPECT_DOUBLE_EQ(g.maxSinceMark(), 7.0);
    EXPECT_DOUBLE_EQ(g.max(), 10.0); // lifetime max unaffected
}

TEST(Gauge, AverageBeforeAnySetIsCurrent)
{
    TimeWeightedGauge g;
    EXPECT_DOUBLE_EQ(g.average(100), 0.0);
}

TEST(Pareto, DominationRules)
{
    DesignPoint cheap_good{1.0, 0.9, 0};
    DesignPoint pricey_bad{2.0, 0.5, 1};
    DesignPoint equal_twin{1.0, 0.9, 2};
    EXPECT_TRUE(stats::dominates(cheap_good, pricey_bad));
    EXPECT_FALSE(stats::dominates(pricey_bad, cheap_good));
    EXPECT_FALSE(stats::dominates(cheap_good, equal_twin));
}

TEST(Pareto, FrontierExtraction)
{
    std::vector<DesignPoint> pts{
        {1.0, 0.30, 0}, // frontier
        {2.0, 0.20, 1}, // dominated by 0
        {3.0, 0.60, 2}, // frontier
        {4.0, 0.55, 3}, // dominated by 2
        {5.0, 0.90, 4}, // frontier
    };
    const auto frontier = stats::paretoFrontier(pts);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0].tag, 0u);
    EXPECT_EQ(frontier[1].tag, 2u);
    EXPECT_EQ(frontier[2].tag, 4u);
}

TEST(Pareto, FrontierIsSortedByCost)
{
    std::vector<DesignPoint> pts{
        {5.0, 0.9, 0}, {1.0, 0.1, 1}, {3.0, 0.5, 2}};
    const auto frontier = stats::paretoFrontier(pts);
    for (std::size_t i = 1; i < frontier.size(); ++i)
        EXPECT_LE(frontier[i - 1].cost, frontier[i].cost);
}

TEST(Pareto, EmptyInput)
{
    EXPECT_TRUE(stats::paretoFrontier({}).empty());
}

/** Deterministic uniform [0, 1) stream (64-bit LCG). */
class UniformStream
{
  public:
    explicit UniformStream(std::uint64_t seed) : state_(seed) {}

    double
    next()
    {
        state_ = state_ * 6364136223846793005ull +
                 1442695040888963407ull;
        return static_cast<double>(state_ >> 11) /
               9007199254740992.0; // 2^53
    }

  private:
    std::uint64_t state_;
};

TEST(P2Quantile, ExactOrderStatisticBelowFiveSamples)
{
    // Until the five markers are primed, value() must return an exact
    // order statistic of the buffered observations (type-1 empirical
    // quantile: smallest sample whose empirical CDF reaches p) —
    // never an interpolated value no sample ever took.
    stats::P2Quantile med(0.5);
    EXPECT_DOUBLE_EQ(med.value(), 0.0);
    med.add(30.0);
    EXPECT_DOUBLE_EQ(med.value(), 30.0);
    med.add(10.0);
    EXPECT_DOUBLE_EQ(med.value(), 10.0); // lower median of {10,30}
    med.add(20.0);
    EXPECT_DOUBLE_EQ(med.value(), 20.0);
    med.add(40.0);
    EXPECT_DOUBLE_EQ(med.value(), 20.0); // rank ceil(0.5*4)=2
    EXPECT_EQ(med.count(), 4u);
}

TEST(P2Quantile, SmallNTailQuantileIsAnObservedSample)
{
    // Regression: a p99 fed two samples used to interpolate between
    // them (rank 0.99 of {lo, hi}), reporting a latency nobody saw.
    stats::P2Quantile p99(0.99);
    p99.add(1.0);
    EXPECT_DOUBLE_EQ(p99.value(), 1.0);
    p99.add(100.0);
    EXPECT_DOUBLE_EQ(p99.value(), 100.0); // ceil(1.98) = 2nd of 2
    p99.add(2.0);
    p99.add(3.0);
    EXPECT_DOUBLE_EQ(p99.value(), 100.0); // ceil(3.96) = 4th of 4
}

TEST(P2Quantile, ConvergesOnUniformStream)
{
    stats::P2Quantile p50(0.50);
    stats::P2Quantile p95(0.95);
    stats::P2Quantile p99(0.99);
    UniformStream u(2026);
    for (int i = 0; i < 100000; ++i) {
        const double x = u.next();
        p50.add(x);
        p95.add(x);
        p99.add(x);
    }
    // True quantiles of U(0,1) are the quantile levels themselves.
    EXPECT_NEAR(p50.value(), 0.50, 0.01);
    EXPECT_NEAR(p95.value(), 0.95, 0.01);
    EXPECT_NEAR(p99.value(), 0.99, 0.005);
}

TEST(P2Quantile, TracksExactPercentileOnHeavyTail)
{
    // Exponential via inverse CDF; compare the streaming estimate to
    // the exact percentile of the full retained sample.
    stats::P2Quantile p95(0.95);
    SampleSet all;
    UniformStream u(7);
    for (int i = 0; i < 50000; ++i) {
        const double x = -std::log(1.0 - u.next());
        p95.add(x);
        all.add(x);
    }
    const double exact = all.percentile(95.0);
    EXPECT_NEAR(p95.value(), exact, 0.05 * exact);
}

TEST(P2Quantile, MonotoneShiftIsFollowed)
{
    // A regime change (latencies jump 10x) must pull the streaming
    // p50 into the new regime once it dominates the stream.
    stats::P2Quantile p50(0.5);
    for (int i = 0; i < 1000; ++i)
        p50.add(0.1);
    for (int i = 0; i < 9000; ++i)
        p50.add(1.0);
    EXPECT_GT(p50.value(), 0.5);
}

TEST(HdrHistogram, QuantileHoldsRelativeErrorBoundAcrossOctaves)
{
    // Every reported quantile must sit within the advertised relative
    // error of the true value, at every magnitude in range.
    stats::HdrHistogram h(1e-3, 3600.0, 0.01);
    EXPECT_LE(h.relError(), 0.01);
    for (double v = 1.5e-3; v < 3600.0; v *= 1.37) {
        stats::HdrHistogram one(1e-3, 3600.0, 0.01);
        one.add(v);
        const double q = one.quantile(0.5);
        EXPECT_NEAR(q, v, v * one.relError())
            << "value " << v << " reported as " << q;
    }
}

TEST(HdrHistogram, QuantilesMatchExactOnKnownStream)
{
    stats::HdrHistogram h(0.01, 100.0, 0.01);
    for (int i = 1; i <= 1000; ++i)
        h.add(i * 0.01); // uniform 0.01 .. 10.00
    EXPECT_EQ(h.count(), 1000);
    EXPECT_NEAR(h.quantile(0.50), 5.0, 5.0 * 2 * h.relError());
    EXPECT_NEAR(h.quantile(0.99), 9.9, 9.9 * 2 * h.relError());
    EXPECT_NEAR(h.mean(), 5.005, 0.001);
    EXPECT_DOUBLE_EQ(h.min(), 0.01);
    EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(HdrHistogram, OutOfRangeValuesClampAndCountOverflow)
{
    stats::HdrHistogram h(1.0, 8.0, 0.05);
    h.add(0.25);  // below min: clamps into the first bucket
    h.add(100.0); // above max: counted as overflow
    EXPECT_EQ(h.count(), 2);
    EXPECT_EQ(h.overflow(), 1);
    EXPECT_DOUBLE_EQ(h.min(), 0.25);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    // The clamped sample reports as the histogram floor, not zero.
    EXPECT_GE(h.quantile(0.01), 0.0);
}

TEST(HdrHistogram, TailExemplarsKeepLargestAndEvictWeakest)
{
    stats::HdrHistogram h(0.001, 100.0, 0.01, 3);
    for (std::uint64_t id = 1; id <= 10; ++id)
        h.add(static_cast<double>(id), id);
    const auto tail = h.tailExemplars();
    ASSERT_EQ(tail.size(), 3u);
    // Sorted descending; the three largest survive with their ids.
    EXPECT_DOUBLE_EQ(tail[0].value, 10.0);
    EXPECT_EQ(tail[0].id, 10u);
    EXPECT_DOUBLE_EQ(tail[1].value, 9.0);
    EXPECT_EQ(tail[1].id, 9u);
    EXPECT_DOUBLE_EQ(tail[2].value, 8.0);
    EXPECT_EQ(tail[2].id, 8u);
}

TEST(HdrHistogram, WeightedAddEqualsRepeatedAdds)
{
    // Weights 0, 1 and many; values below the floor, inside the range
    // and past the ceiling; ids for the exemplar heap.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Rng rng(seed, "hdr-weighted");
        stats::HdrHistogram weighted(1e-3, 100.0, 0.01, 4);
        stats::HdrHistogram single(1e-3, 100.0, 0.01, 4);
        for (int batch = 0; batch < 200; ++batch) {
            const double x = std::exp(rng.uniform(-9.0, 6.0));
            // The first add has weight 0: it must not set min/max.
            const auto w = static_cast<std::size_t>(
                batch == 0          ? 0
                : rng.bernoulli(0.2) ? rng.uniformInt(0, 1)
                                     : rng.uniformInt(2, 40));
            const auto id = static_cast<std::uint64_t>(batch);
            weighted.addWeighted(x, w, id);
            for (std::size_t i = 0; i < w; ++i)
                single.add(x, id);
        }
        ASSERT_EQ(weighted.buckets(), single.buckets());
        for (std::size_t i = 0; i < single.buckets(); ++i)
            ASSERT_EQ(weighted.binCount(i), single.binCount(i)) << i;
        EXPECT_EQ(weighted.count(), single.count());
        EXPECT_EQ(weighted.overflow(), single.overflow());
        EXPECT_EQ(weighted.min(), single.min());
        EXPECT_EQ(weighted.max(), single.max());
        EXPECT_NEAR(weighted.sum(), single.sum(), 1e-9 * single.sum());
        for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999})
            EXPECT_EQ(weighted.quantile(q), single.quantile(q)) << q;
        const auto we = weighted.tailExemplars();
        const auto se = single.tailExemplars();
        ASSERT_EQ(we.size(), se.size());
        for (std::size_t i = 0; i < se.size(); ++i) {
            EXPECT_EQ(we[i].value, se[i].value);
            EXPECT_EQ(we[i].id, se[i].id);
        }
    }
}

} // namespace
