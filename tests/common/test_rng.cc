/** @file Tests for the xoshiro256++ RNG and discrete sampling. */

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace qra {
namespace {

TEST(RngTest, Deterministic)
{
    Xoshiro256 a(42);
    Xoshiro256 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Xoshiro256 a(1);
    Xoshiro256 b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestoresStream)
{
    Xoshiro256 a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a());
    a.seed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a(), first[i]);
}

TEST(RngTest, UniformInUnitInterval)
{
    Xoshiro256 rng(123);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanIsHalf)
{
    Xoshiro256 rng(99);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysBelow)
{
    Xoshiro256 rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.below(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    // All ten residues should appear over 1000 draws.
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, SampleDiscreteDegenerate)
{
    Xoshiro256 rng(1);
    const std::vector<double> probs{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampleDiscrete(probs, rng), 1u);
}

TEST(RngTest, SampleDiscreteProportions)
{
    Xoshiro256 rng(2024);
    const std::vector<double> probs{0.2, 0.5, 0.3};
    std::vector<int> hist(3, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++hist[sampleDiscrete(probs, rng)];
    EXPECT_NEAR(hist[0] / double(n), 0.2, 0.01);
    EXPECT_NEAR(hist[1] / double(n), 0.5, 0.01);
    EXPECT_NEAR(hist[2] / double(n), 0.3, 0.01);
}

TEST(RngTest, SampleDiscreteToleratesDrift)
{
    Xoshiro256 rng(3);
    // Sums to slightly under one; the tail must absorb the slack.
    const std::vector<double> probs{0.5, 0.4999999};
    for (int i = 0; i < 1000; ++i) {
        const std::size_t s = sampleDiscrete(probs, rng);
        EXPECT_LT(s, 2u);
    }
}

TEST(RngTest, SampleDiscreteEmptyThrows)
{
    Xoshiro256 rng(4);
    EXPECT_ANY_THROW(sampleDiscrete({}, rng));
}

/** Draws @p draws times from twin streams; both samplers must agree. */
void
expectCumulativeMatchesScan(const std::vector<double> &probs,
                            std::uint64_t seed, std::size_t draws)
{
    const std::vector<double> prefix = cumulativeWeights(probs);
    ASSERT_EQ(prefix.size(), probs.size());
    Xoshiro256 scan(seed);
    Xoshiro256 search(seed);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::size_t want = sampleDiscrete(probs, scan);
        const std::size_t got = sampleCumulative(prefix, search);
        if (got != want) {
            ADD_FAILURE() << "draw " << i << ": search " << got
                          << " != scan " << want;
            return;
        }
    }
}

TEST(RngTest, SampleCumulativeMatchesScanDrawForDraw)
{
    const std::size_t draws = 1000000;
    // Zero weights in the middle and at the end.
    expectCumulativeMatchesScan({0.3, 0.0, 0.2, 0.0, 0.5, 0.0, 0.0}, 10,
                                draws);
    // A sum short of 1: 5% of draws take the drift fallback.
    expectCumulativeMatchesScan({0.25, 0.25, 0.25, 0.2}, 11, draws);
    // A sum above 1: the last entry is never reached.
    expectCumulativeMatchesScan({0.5, 0.4, 0.3}, 12, draws);
    // A single entry, whole and short.
    expectCumulativeMatchesScan({1.0}, 13, draws);
    expectCumulativeMatchesScan({0.5}, 14, draws);
    // Many entries with ragged, rounding-prone weights and zero runs.
    std::vector<double> wide(300);
    for (std::size_t i = 0; i < wide.size(); ++i)
        wide[i] = i % 7 < 2 ? 0.0 : std::sin(0.37 * double(i)) + 1.0;
    double total = 0.0;
    for (const double w : wide)
        total += w;
    for (double &w : wide)
        w /= total;
    expectCumulativeMatchesScan(wide, 15, draws);
}

TEST(RngTest, SampleCumulativeDrawOnAPrefixValue)
{
    // u equal to a running sum: the scan moves past it (u < acc fails),
    // so the search must too, also past the zero weight after it.
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
        const double u = Xoshiro256(seed).uniform();
        for (const std::vector<double> &probs :
             {std::vector<double>{u, 1.0 - u},
              std::vector<double>{u, 0.0, 1.0 - u}}) {
            const std::vector<double> prefix = cumulativeWeights(probs);
            ASSERT_EQ(prefix[0], u);
            Xoshiro256 scan(seed);
            Xoshiro256 search(seed);
            const std::size_t want = sampleDiscrete(probs, scan);
            EXPECT_EQ(want, probs.size() - 1) << "seed " << seed;
            EXPECT_EQ(sampleCumulative(prefix, search), want)
                << "seed " << seed;
        }
    }
}

TEST(RngTest, SampleCumulativeRejectsEmptyAndNegative)
{
    Xoshiro256 rng(4);
    EXPECT_TRUE(cumulativeWeights({}).empty());
    EXPECT_ANY_THROW(sampleCumulative({}, rng));
    // A negative or NaN weight breaks the sums' monotonicity.
    EXPECT_ANY_THROW(cumulativeWeights({0.5, -0.1, 0.6}));
    EXPECT_ANY_THROW(cumulativeWeights({0.5, std::nan(""), 0.5}));
}

} // namespace
} // namespace qra
