/** @file Tests for distribution distances and confidence intervals. */

#include <gtest/gtest.h>

#include "stats/distance.hh"

namespace qra {
namespace stats {
namespace {

TEST(DistanceTest, TotalVariationIdentical)
{
    Distribution p{{0, 0.5}, {1, 0.5}};
    EXPECT_DOUBLE_EQ(totalVariation(p, p), 0.0);
}

TEST(DistanceTest, TotalVariationDisjoint)
{
    Distribution p{{0, 1.0}};
    Distribution q{{1, 1.0}};
    EXPECT_DOUBLE_EQ(totalVariation(p, q), 1.0);
}

TEST(DistanceTest, TotalVariationPartialOverlap)
{
    Distribution p{{0, 0.5}, {1, 0.5}};
    Distribution q{{0, 1.0}};
    EXPECT_DOUBLE_EQ(totalVariation(p, q), 0.5);
}

TEST(DistanceTest, TotalVariationSymmetric)
{
    Distribution p{{0, 0.7}, {1, 0.3}};
    Distribution q{{0, 0.2}, {2, 0.8}};
    EXPECT_DOUBLE_EQ(totalVariation(p, q), totalVariation(q, p));
}

TEST(DistanceTest, WilsonHalfWidthShrinksWithN)
{
    const double w100 = wilsonHalfWidth(0.5, 100);
    const double w10000 = wilsonHalfWidth(0.5, 10000);
    EXPECT_GT(w100, w10000);
    // Classic n=100, p=0.5 half-width is about 9.5%.
    EXPECT_NEAR(w100, 0.095, 0.01);
    EXPECT_DOUBLE_EQ(wilsonHalfWidth(0.5, 0), 1.0);
}

TEST(DistanceTest, WilsonAtExtremes)
{
    // Zero successes still leaves nonzero uncertainty.
    EXPECT_GT(wilsonHalfWidth(0.0, 100), 0.0);
    EXPECT_GT(wilsonHalfWidth(1.0, 100), 0.0);
    // The boundary cases shrink with n like the interior ones.
    EXPECT_LT(wilsonHalfWidth(0.0, 10000), wilsonHalfWidth(0.0, 100));
    EXPECT_LT(wilsonHalfWidth(1.0, 10000), wilsonHalfWidth(1.0, 100));
    // And stay narrower than the maximum-variance midpoint.
    EXPECT_LT(wilsonHalfWidth(0.0, 100), wilsonHalfWidth(0.5, 100));
}

TEST(DistanceTest, WilsonWithNoShotsIsVacuous)
{
    // n = 0: no information, a full-width interval at any p_hat —
    // the value early-stopping rules compare against their target,
    // so it must be the never-converged extreme, not a division by
    // zero.
    EXPECT_DOUBLE_EQ(wilsonHalfWidth(0.0, 0), 1.0);
    EXPECT_DOUBLE_EQ(wilsonHalfWidth(0.5, 0), 1.0);
    EXPECT_DOUBLE_EQ(wilsonHalfWidth(1.0, 0), 1.0);
}

} // namespace
} // namespace stats
} // namespace qra
