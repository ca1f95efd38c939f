/** @file Tests for the xoshiro256++ RNG and discrete sampling. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "stats/chi_square.hh"

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
expectSamplerMatchesScan(const std::vector<double> &probs,
                         std::uint64_t seed, std::size_t draws)
{
    const CumulativeSampler sampler(probs);
    ASSERT_EQ(sampler.size(), probs.size());
    Xoshiro256 scan(seed);
    Xoshiro256 guided(seed);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::size_t want = sampleDiscrete(probs, scan);
        const std::size_t got = sampler(guided);
        if (got != want) {
            ADD_FAILURE() << "draw " << i << ": guided " << got
                          << " != scan " << want;
            return;
        }
    }
}

/** @p n ragged, rounding-prone weights with zero runs, summing to ~1. */
std::vector<double>
raggedWeights(std::size_t n)
{
    std::vector<double> wide(n);
    for (std::size_t i = 0; i < wide.size(); ++i)
        wide[i] = i % 7 < 2 ? 0.0 : std::sin(0.37 * double(i)) + 1.0;
    double total = 0.0;
    for (const double w : wide)
        total += w;
    for (double &w : wide)
        w /= total;
    return wide;
}

/** 0.5, 0.25, ..., 2^-k, 2^-k: running sums on power-of-two edges. */
std::vector<double>
halvingWeights(int k)
{
    std::vector<double> probs;
    for (int i = 1; i <= k; ++i)
        probs.push_back(std::ldexp(1.0, -i));
    probs.push_back(std::ldexp(1.0, -k));
    return probs;
}

/** Zero runs of @p run keys at the start, on bucket edges and at the end. */
std::vector<double>
zeroRunWeights(std::size_t run)
{
    std::vector<double> probs(run, 0.0);
    for (const double w : {0.25, 0.25, 0.5}) {
        probs.push_back(w);
        probs.insert(probs.end(), run, 0.0);
    }
    return probs;
}

TEST(RngTest, CumulativeSamplerMatchesScanDrawForDraw)
{
    const std::size_t draws = 1000000;
    // Zero weights in the middle and at the end.
    expectSamplerMatchesScan({0.3, 0.0, 0.2, 0.0, 0.5, 0.0, 0.0}, 10,
                             draws);
    // A sum short of 1: 5% of draws take the drift fallback.
    expectSamplerMatchesScan({0.25, 0.25, 0.25, 0.2}, 11, draws);
    // A sum above 1: the last entry is never reached.
    expectSamplerMatchesScan({0.5, 0.4, 0.3}, 12, draws);
    // A single entry, whole and short.
    expectSamplerMatchesScan({1.0}, 13, draws);
    expectSamplerMatchesScan({0.5}, 14, draws);
    // Many entries with ragged, rounding-prone weights and zero runs.
    expectSamplerMatchesScan(raggedWeights(300), 15, draws);
}

TEST(RngTest, CumulativeSamplerMatchesScanOnGuideEdges)
{
    const std::size_t draws = 1000000;
    // Running sums exactly on bucket edges: a draw in the bucket that
    // starts at a sum must move past it.
    expectSamplerMatchesScan(halvingWeights(12), 20, draws);
    // Runs of 40 zero weights before, between and after the others:
    // runs of equal sums, the inner ones on bucket edges.
    expectSamplerMatchesScan(zeroRunWeights(40), 21, draws);
    // 1000 ragged keys: a 1024-bucket guide, past the 256 minimum.
    const std::vector<double> ragged = raggedWeights(1000);
    ASSERT_EQ(CumulativeSampler(ragged).guide().size(), 1024u);
    expectSamplerMatchesScan(ragged, 22, draws);
    // A sum of 0.9: the drift tail covers whole buckets, whose start is
    // the clamped last index.
    expectSamplerMatchesScan({0.3, 0.3, 0.3}, 23, draws);
    expectSamplerMatchesScan({0.6, 0.0, 0.3, 0.0}, 24, draws);
    // A sum above 1 and a single key.
    expectSamplerMatchesScan({0.7, 0.6, 0.2}, 25, draws);
    expectSamplerMatchesScan({0.25}, 26, draws);
}

TEST(RngTest, CumulativeSamplerDrawOnASumValue)
{
    // u equal to a running sum: the scan moves past it (u < acc fails),
    // so the guided draw must too, also past the zero weight after it.
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
        const double u = Xoshiro256(seed).uniform();
        for (const std::vector<double> &probs :
             {std::vector<double>{u, 1.0 - u},
              std::vector<double>{u, 0.0, 1.0 - u}}) {
            const CumulativeSampler sampler(probs);
            ASSERT_EQ(sampler.sums()[0], u);
            Xoshiro256 scan(seed);
            Xoshiro256 guided(seed);
            const std::size_t want = sampleDiscrete(probs, scan);
            EXPECT_EQ(want, probs.size() - 1) << "seed " << seed;
            EXPECT_EQ(sampler(guided), want) << "seed " << seed;
        }
    }
}

TEST(RngTest, CumulativeSamplerRejectsEmptyAndNegative)
{
    Xoshiro256 rng(4);
    const CumulativeSampler empty(std::vector<double>{});
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.guide().empty());
    EXPECT_ANY_THROW(empty(rng));
    EXPECT_ANY_THROW(empty.counts(1, rng));
    EXPECT_TRUE(empty.counts(0, rng).empty());
    // A negative or NaN weight breaks the sums' monotonicity.
    EXPECT_THROW(CumulativeSampler({0.5, -0.1, 0.6}), ValueError);
    EXPECT_THROW(CumulativeSampler({0.5, std::nan(""), 0.5}), ValueError);
}

TEST(RngTest, CumulativeSamplerRejectsZeroAndNonFiniteTotals)
{
    // No draw over sums that end at 0 or at inf means anything.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(CumulativeSampler({0.0}), ValueError);
    EXPECT_THROW(CumulativeSampler({0.0, 0.0, 0.0}), ValueError);
    EXPECT_THROW(CumulativeSampler({0.5, inf, 0.5}), ValueError);
    EXPECT_THROW(CumulativeSampler({inf}), ValueError);
    EXPECT_THROW(CumulativeSampler({1.0, std::nan("")}), ValueError);
    // Finite weights whose sum overflows.
    const double big = std::numeric_limits<double>::max();
    EXPECT_THROW(CumulativeSampler({big, big}), ValueError);
    // Unnormalised but finite and positive totals are fine.
    EXPECT_NO_THROW(CumulativeSampler({2.0, 6.0}));
    EXPECT_NO_THROW(CumulativeSampler({0.0, 1e-300}));
}

TEST(RngTest, CumulativeSamplerPointMassAlwaysDrawsIt)
{
    const CumulativeSampler point({0.0, 3.0, 0.0});
    Xoshiro256 rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(point(rng), 1u);
    EXPECT_EQ(point.counts(1000, rng), (CumulativeSampler::Counts{{1, 1000}}));
    EXPECT_EQ(point.counts(5, rng), (CumulativeSampler::Counts{{1, 5}}));
}

TEST(RngTest, CumulativeSamplerGuideSizeIsFixed)
{
    // max(256, the next power of two >= keys): one bucket per key,
    // so a 2^16-key state-vector entry's guide is 256 KiB.
    for (const auto &[keys, buckets] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 256}, {2, 256}, {100, 256}, {128, 256}, {129, 256},
             {256, 256}, {257, 512}, {512, 512}, {1000, 1024},
             {1024, 1024}, {1025, 2048}, {65536, 65536}})
        EXPECT_EQ(CumulativeSampler(std::vector<double>(keys, 1.0 / keys))
                      .guide()
                      .size(),
                  buckets)
            << keys << " keys";
}

TEST(RngTest, CumulativeSamplerGuideStartsAtEachEdgesAnswer)
{
    // guide[b] is the draw's answer for u on the bucket edge b * 2^-m:
    // the first sum above the edge, clamped to the last index.
    for (const std::vector<double> &probs :
         {halvingWeights(12), zeroRunWeights(40), raggedWeights(1000),
          std::vector<double>{0.3, 0.3, 0.3},
          std::vector<double>{0.7, 0.6, 0.2}, std::vector<double>{1.0}}) {
        const CumulativeSampler sampler(probs);
        const std::vector<double> &sums = sampler.sums();
        const std::vector<std::uint32_t> &guide = sampler.guide();
        ASSERT_TRUE(std::has_single_bit(guide.size()));
        for (std::size_t b = 0; b < guide.size(); ++b) {
            const double edge =
                static_cast<double>(b) / static_cast<double>(guide.size());
            const std::size_t want = std::min<std::size_t>(
                std::upper_bound(sums.begin(), sums.end(), edge) -
                    sums.begin(),
                sums.size() - 1);
            if (guide[b] != want) {
                ADD_FAILURE() << probs.size() << " keys, bucket " << b
                              << ": guide " << guide[b] << " != " << want;
                break;
            }
        }
    }
}

/** Below the split: counts() is @p shots successive guided draws. */
void
expectCountsAreSuccessiveDraws(const CumulativeSampler &sampler,
                               std::size_t shots, std::uint64_t seed)
{
    ASSERT_LT(shots, CumulativeSampler::kSplitShotsPerKey * sampler.size());
    Xoshiro256 batch(seed);
    Xoshiro256 single(seed);
    std::map<std::size_t, std::size_t> tally;
    for (std::size_t s = 0; s < shots; ++s)
        ++tally[sampler(single)];
    const CumulativeSampler::Counts want(tally.begin(), tally.end());
    EXPECT_EQ(sampler.counts(shots, batch), want) << shots;
    // Both streams end at the same place.
    EXPECT_EQ(batch(), single()) << shots;
}

TEST(RngTest, CumulativeSamplerCountsAreSuccessiveDraws)
{
    // The per-shot regime, up to one shot below the split.
    // Fewer shots than keys are tallied by sorting the draws, more by
    // one counter per key.
    const CumulativeSampler ragged(raggedWeights(300));
    const std::size_t split = CumulativeSampler::kSplitShotsPerKey * 300;
    for (const std::size_t shots :
         {std::size_t{0}, std::size_t{1}, std::size_t{299},
          std::size_t{300}, std::size_t{1000}, split - 1})
        expectCountsAreSuccessiveDraws(ragged, shots, 31);
    // sv_sweep's shape: 1024 shots over a 16-qubit register's 2^16
    // keys stay per-shot, so its counts are the guided draws'.
    expectCountsAreSuccessiveDraws(CumulativeSampler(raggedWeights(65536)),
                                   1024, 32);
    // At the split the stream is no longer one uniform per shot.
    Xoshiro256 batch(33);
    Xoshiro256 single(33);
    ragged.counts(split, batch);
    for (std::size_t s = 0; s < split; ++s)
        ragged(single);
    EXPECT_NE(batch(), single());
}

/**
 * The per-shot law of @p sampler: index i's share of u in [0, 1),
 * min(sums[i], 1) - min(sums[i - 1], 1), the last index taking the
 * drift up to 1.
 */
stats::Distribution
perShotLaw(const CumulativeSampler &sampler)
{
    const std::vector<double> &sums = sampler.sums();
    stats::Distribution law;
    double below = 0.0;
    for (std::size_t i = 0; i < sums.size(); ++i) {
        const double upto =
            i + 1 == sums.size() ? 1.0 : std::min(sums[i], 1.0);
        if (upto > below)
            law[i] = upto - below;
        below = upto;
    }
    return law;
}

// From the split on, counts fit the per-shot law (1e-6 false-alarm
// rate per fit): zero-weight keys, a total short of 1 (the last key
// takes the drift) and above it (keys past 1 get nothing).
TEST(RngTest, CumulativeSamplerSplitCountsFitThePerShotLaw)
{
    const std::vector<std::vector<double>> cases = {
        {0.3, 0.0, 0.2, 0.0, 0.5, 0.0, 0.0},
        {0.25, 0.25, 0.25, 0.2},
        {0.5, 0.4, 0.3},
        {0.7, 0.6, 0.2},
        {1.0},
        halvingWeights(12),
        zeroRunWeights(40),
        raggedWeights(300),
    };
    for (const std::vector<double> &probs : cases) {
        const CumulativeSampler sampler(probs);
        const stats::Distribution law = perShotLaw(sampler);
        for (const std::size_t shots :
             {CumulativeSampler::kSplitShotsPerKey * probs.size(),
              std::size_t{8192}, std::size_t{1} << 20}) {
            if (shots < CumulativeSampler::kSplitShotsPerKey * probs.size())
                continue;
            for (const std::uint64_t seed : {40u, 41u, 42u}) {
                Xoshiro256 rng(seed);
                stats::Counts observed;
                std::size_t total = 0;
                std::size_t last = 0;
                for (const auto &[i, count] : sampler.counts(shots, rng)) {
                    // Ascending, positive, and only where the law has
                    // mass.
                    EXPECT_TRUE(observed.empty() || i > last);
                    EXPECT_GT(count, 0u);
                    EXPECT_TRUE(law.contains(i))
                        << probs.size() << " keys, key " << i;
                    observed[i] = count;
                    total += count;
                    last = i;
                }
                EXPECT_EQ(total, shots);
                EXPECT_GE(stats::pooledChiSquareTest(observed, law).pValue,
                          1e-6)
                    << probs.size() << " keys, " << shots << " shots, seed "
                    << seed;
            }
        }
    }
}

// ---- binomial draws -----------------------------------------------------

/** Binomial(n, p)'s pmf over [0, n], zero-probability values left out. */
stats::Distribution
binomialPmf(std::uint64_t n, double p)
{
    stats::Distribution pmf;
    if (p == 0.0 || p == 1.0) {
        pmf[p == 0.0 ? 0 : n] = 1.0;
        return pmf;
    }
    const double dn = static_cast<double>(n);
    for (std::uint64_t k = 0; k <= n; ++k) {
        const double dk = static_cast<double>(k);
        const double log_pmf = std::lgamma(dn + 1.0) - std::lgamma(dk + 1.0) -
                               std::lgamma(dn - dk + 1.0) +
                               dk * std::log(p) + (dn - dk) * std::log1p(-p);
        const double value = std::exp(log_pmf);
        if (value > 0.0)
            pmf[k] = value;
    }
    return pmf;
}

/**
 * @p draws binomial draws from one stream fit the pmf (pooled
 * chi-square, 1e-6 false-alarm rate), and their mean and variance lie
 * within 6 standard errors of n p and n p (1 - p).
 */
void
expectBinomialFits(std::uint64_t n, double p, std::size_t draws,
                   std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    stats::Counts observed;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t k = sampleBinomial(n, p, rng);
        ASSERT_LE(k, n) << "n " << n << " p " << p;
        ++observed[k];
        sum += static_cast<double>(k);
        sum_sq += static_cast<double>(k) * static_cast<double>(k);
    }
    const std::string where = "n " + std::to_string(n) + " p " +
                              std::to_string(p) + " seed " +
                              std::to_string(seed);
    EXPECT_GE(stats::pooledChiSquareTest(observed, binomialPmf(n, p)).pValue,
              1e-6)
        << where;
    const double dn = static_cast<double>(draws);
    const double mean = n * p;
    const double var = n * p * (1.0 - p);
    const double sample_mean = sum / dn;
    const double sample_var =
        (sum_sq - dn * sample_mean * sample_mean) / (dn - 1.0);
    EXPECT_LE(std::abs(sample_mean - mean), 6.0 * std::sqrt(var / dn) + 1e-12)
        << where << ": mean " << sample_mean;
    // Var(s^2) = (mu4 - var^2 (N - 3) / (N - 1)) / N for N draws, with
    // the binomial's mu4 = var (1 + 3 (n - 2) p q).
    const double mu4 = var * (1.0 + 3.0 * (static_cast<double>(n) - 2.0) *
                                        p * (1.0 - p));
    const double var_of_var =
        (mu4 - var * var * (dn - 3.0) / (dn - 1.0)) / dn;
    EXPECT_LE(std::abs(sample_var - var),
              6.0 * std::sqrt(std::max(var_of_var, 0.0)) + 1e-12)
        << where << ": variance " << sample_var;
}

TEST(RngTest, BinomialFitsItsPmfOverTheGrid)
{
    // Every pair of a grid of n and p, on both sides of p = 1/2 (drawn
    // as n - Binomial(n, 1 - p)), and n p on both sides of the switch
    // from inversion to BTRD at 10.
    std::uint64_t seed = 100;
    for (const std::uint64_t n :
         {0u, 1u, 2u, 9u, 10u, 11u, 255u, 256u, 1024u, 8192u})
        for (const double p : {0.0, 1e-9, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7,
                               0.99, 1.0})
            expectBinomialFits(n, p, 50000, seed++);
    for (const double np : {9.99, 10.0, 10.01})
        for (const std::uint64_t n : {20u, 21u, 1024u, 8192u}) {
            const double p = np / static_cast<double>(n);
            expectBinomialFits(n, p, 50000, seed++);
            expectBinomialFits(n, 1.0 - p, 50000, seed++);
        }
}

TEST(RngTest, BinomialBtrdBranchesFitThePmf)
{
    // A million draws where BTRD's steps each take a share: the
    // recursion (|k - m| <= 15) dominates at small spreads, and the
    // squeeze and log-ratio test at the large ones.
    std::uint64_t seed = 300;
    for (const auto &[n, p] : std::vector<std::pair<std::uint64_t, double>>{
             {8192, 0.5}, {8192, 0.03}, {1024, 0.3}, {256, 0.5},
             {100, 0.11}, {40, 0.3}})
        expectBinomialFits(n, p, 1000000, seed++);
}

TEST(RngTest, BinomialEdgesAreExact)
{
    Xoshiro256 rng(7);
    Xoshiro256 untouched(7);
    for (const std::uint64_t n : {0u, 1u, 13u, 8192u}) {
        EXPECT_EQ(sampleBinomial(n, 0.0, rng), 0u);
        EXPECT_EQ(sampleBinomial(n, 1.0, rng), n);
    }
    for (const double p : {1e-300, 0.3, 0.5, 0.9999})
        EXPECT_EQ(sampleBinomial(0, p, rng), 0u);
    // None of these drew a uniform.
    EXPECT_EQ(rng(), untouched());
    EXPECT_THROW(sampleBinomial(10, -0.1, rng), ValueError);
    EXPECT_THROW(sampleBinomial(10, 1.5, rng), ValueError);
    EXPECT_THROW(sampleBinomial(10, std::nan(""), rng), ValueError);
}

TEST(RngTest, BinomialStreamIsPinned)
{
    // The library's own binomial: the same draws with every standard
    // library and compiler. Pinned when it was written.
    Xoshiro256 rng(2024);
    std::vector<std::uint64_t> draws;
    for (const auto &[n, p] : std::vector<std::pair<std::uint64_t, double>>{
             {1, 0.5}, {9, 0.3}, {20, 0.4995}, {1024, 0.01}, {1024, 0.99},
             {8192, 0.5}, {8192, 0.003}, {256, 0.7}, {65536, 0.125}})
        for (int i = 0; i < 4; ++i)
            draws.push_back(sampleBinomial(n, p, rng));
    std::string text;
    for (const std::uint64_t k : draws)
        text += std::to_string(k) + " ";
    EXPECT_EQ(text, "1 0 0 0 4 4 6 3 7 9 11 12 10 14 9 12 "
                    "1014 1016 1007 1019 4114 4106 4010 4141 "
                    "24 20 25 32 192 180 184 167 8112 8263 8168 8227 ");
}

} // namespace
} // namespace qra
