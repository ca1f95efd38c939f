/** @file Tests for the chi-square goodness-of-fit machinery. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "stats/chi_square.hh"

namespace qra {
namespace stats {
namespace {

TEST(GammaTest, KnownValues)
{
    // Q(a, 0) = 1.
    EXPECT_NEAR(regularizedGammaQ(1.0, 0.0), 1.0, 1e-12);
    // Q(1, x) = exp(-x) (chi-square with 2 dof).
    for (double x : {0.1, 1.0, 2.5, 10.0})
        EXPECT_NEAR(regularizedGammaQ(1.0, x), std::exp(-x), 1e-10)
            << x;
    // Q(0.5, x) = erfc(sqrt(x)) (chi-square with 1 dof).
    for (double x : {0.5, 1.0, 4.0})
        EXPECT_NEAR(regularizedGammaQ(0.5, x),
                    std::erfc(std::sqrt(x)), 1e-9)
            << x;
}

TEST(GammaTest, ChiSquareCriticalValues)
{
    // Familiar 95th percentiles: chi2(1) = 3.841, chi2(3) = 7.815.
    EXPECT_NEAR(regularizedGammaQ(0.5, 3.841 / 2.0), 0.05, 2e-4);
    EXPECT_NEAR(regularizedGammaQ(1.5, 7.815 / 2.0), 0.05, 2e-4);
}

TEST(GammaTest, Validation)
{
    EXPECT_THROW(regularizedGammaQ(0.0, 1.0), ValueError);
    EXPECT_THROW(regularizedGammaQ(1.0, -1.0), ValueError);
}

TEST(ChiSquareTest, PerfectFitHasHighPValue)
{
    Counts observed{{0, 5000}, {1, 5000}};
    Distribution expected{{0, 0.5}, {1, 0.5}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    EXPECT_EQ(r.degreesOfFreedom, 1u);
    EXPECT_NEAR(r.statistic, 0.0, 1e-12);
    EXPECT_NEAR(r.pValue, 1.0, 1e-9);
    EXPECT_FALSE(r.reject());
}

TEST(ChiSquareTest, GrossMismatchRejects)
{
    Counts observed{{0, 9000}, {1, 1000}};
    Distribution expected{{0, 0.5}, {1, 0.5}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    EXPECT_TRUE(r.reject(0.001));
    EXPECT_GT(r.statistic, 1000.0);
}

TEST(ChiSquareTest, ImpossibleOutcomeForcesRejection)
{
    Counts observed{{0, 99}, {5, 1}};
    Distribution expected{{0, 1.0}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    EXPECT_TRUE(std::isinf(r.statistic));
    EXPECT_DOUBLE_EQ(r.pValue, 0.0);
    EXPECT_TRUE(r.reject());
}

TEST(ChiSquareTest, SmallDeviationNotRejected)
{
    // 5070 vs 4930 on 10000 shots: chi2 ~ 1.96, p ~ 0.16.
    Counts observed{{0, 5070}, {1, 4930}};
    Distribution expected{{0, 0.5}, {1, 0.5}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    EXPECT_FALSE(r.reject(0.05));
    EXPECT_GT(r.pValue, 0.1);
}

TEST(ChiSquareTest, DegreesOfFreedomCountsCategories)
{
    Counts observed{{0, 25}, {1, 25}, {2, 25}, {3, 25}};
    Distribution expected{{0, 0.25}, {1, 0.25}, {2, 0.25}, {3, 0.25}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    EXPECT_EQ(r.degreesOfFreedom, 3u);
}

TEST(ChiSquareTest, MissingObservedCategoryCounts)
{
    // Expected support includes 1, but nothing was observed there.
    Counts observed{{0, 100}};
    Distribution expected{{0, 0.9}, {1, 0.1}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    // statistic = (100-90)^2/90 + (0-10)^2/10 = 1.111 + 10.
    EXPECT_NEAR(r.statistic, 100.0 / 90.0 + 10.0, 1e-9);
}

TEST(ChiSquareTest, ZeroShotsThrows)
{
    EXPECT_THROW(chiSquareTest({}, {{0, 1.0}}), ValueError);
}

TEST(ChiSquareTest, SingleCategoryPerfectFit)
{
    Counts observed{{0, 100}};
    Distribution expected{{0, 1.0}};
    const ChiSquareResult r = chiSquareTest(observed, expected);
    EXPECT_EQ(r.degreesOfFreedom, 0u);
    EXPECT_FALSE(r.reject());
}

TEST(ChiSquareTest, PooledTestMergesSmallBins)
{
    // 1000 shots: outcomes 2 and 3 expect 5 each, too few alone; they
    // pool into one 10-shot bin, which joins the smallest kept bin.
    const Distribution expected{{0, 0.6}, {1, 0.39}, {2, 0.005},
                                {3, 0.005}};
    const Counts observed{{0, 600}, {1, 390}, {2, 10}};
    const ChiSquareResult plain = chiSquareTest(observed, expected);
    const ChiSquareResult pooled = pooledChiSquareTest(observed, expected);
    EXPECT_EQ(plain.degreesOfFreedom, 3u);
    EXPECT_EQ(pooled.degreesOfFreedom, 1u);
    EXPECT_LT(plain.pValue, 0.05);
    EXPECT_NEAR(pooled.pValue, 1.0, 1e-9);
    // An outcome outside the support is still impossible.
    EXPECT_EQ(pooledChiSquareTest({{0, 600}, {7, 1}}, expected).pValue,
              0.0);
}

} // namespace
} // namespace stats
} // namespace qra
