/** @file Tests for counts/distribution utilities. */

#include <gtest/gtest.h>

#include "stats/histogram.hh"

namespace qra {
namespace stats {
namespace {

TEST(HistogramTest, TotalShots)
{
    Counts counts{{0, 10}, {3, 30}};
    EXPECT_EQ(totalShots(counts), 40u);
    EXPECT_EQ(totalShots({}), 0u);
}

TEST(HistogramTest, ToDistribution)
{
    Counts counts{{0, 25}, {1, 75}};
    const Distribution dist = toDistribution(counts);
    EXPECT_DOUBLE_EQ(dist.at(0), 0.25);
    EXPECT_DOUBLE_EQ(dist.at(1), 0.75);
    EXPECT_TRUE(toDistribution({}).empty());
}

TEST(HistogramTest, DistributionToString)
{
    Distribution dist{{0, 0.5}, {3, 0.5}};
    const std::string s = distributionToString(dist, 2);
    EXPECT_NE(s.find("00:0.500"), std::string::npos);
    EXPECT_NE(s.find("11:0.500"), std::string::npos);
}

} // namespace
} // namespace stats
} // namespace qra
