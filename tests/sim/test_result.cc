/**
 * @file
 * Result: merge semantics (counts, exact-distribution adoption and
 * conflict detection), adaptive-run metadata, and zero-count records.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "sim/result.hh"
#include "sim/statevector_simulator.hh"
#include "sim/trajectory_simulator.hh"

using namespace qra;

TEST(ResultMerge, AdoptsExactDistributionFromEitherSide)
{
    Result left(1);
    left.record(0, 10);
    Result right(1);
    right.record(1, 10);
    right.setExactDistribution({{0, 0.5}, {1, 0.5}});

    left.merge(right);
    ASSERT_TRUE(left.exactDistribution().has_value());
    EXPECT_DOUBLE_EQ(left.exactDistribution()->at(0), 0.5);
    EXPECT_EQ(left.shots(), 20u);
}

TEST(ResultMerge, IdenticalExactDistributionsMerge)
{
    // Shards of one job carry identical copies; merging them is fine.
    Result a(1);
    a.record(0, 5);
    a.setExactDistribution({{0, 0.5}, {1, 0.5}});
    Result b(1);
    b.record(1, 5);
    b.setExactDistribution({{0, 0.5}, {1, 0.5}});
    a.merge(b);
    EXPECT_EQ(a.shots(), 10u);
    EXPECT_DOUBLE_EQ(a.exactDistribution()->at(1), 0.5);
}

TEST(ResultMerge, ConflictingExactDistributionsRefuse)
{
    // Distinct jobs carry distinct exact distributions; silently
    // keeping the left one would misdescribe the merged counts.
    Result a(1);
    a.record(0, 5);
    a.setExactDistribution({{0, 1.0}});
    Result b(1);
    b.record(1, 5);
    b.setExactDistribution({{0, 0.5}, {1, 0.5}});
    EXPECT_THROW(a.merge(b), ValueError);
}

TEST(ResultMerge, WidthMismatchStillRefuses)
{
    Result a(1);
    Result b(2);
    EXPECT_THROW(a.merge(b), ValueError);
}

TEST(ResultMetadata, ShotsRequestedDefaultsToShots)
{
    Result r(1);
    r.record(0, 100);
    EXPECT_EQ(r.shotsRequested(), 100u);
    EXPECT_FALSE(r.stoppedEarly());

    r.setShotsRequested(400);
    r.setStoppedEarly(true);
    EXPECT_EQ(r.shotsRequested(), 400u);
    EXPECT_TRUE(r.stoppedEarly());
}

TEST(ResultMetadata, MergeSumsBudgetsAndOrsStoppedEarly)
{
    // Two early-stopped jobs of a batch: the union used 300 of 800.
    Result a(1);
    a.record(0, 100);
    a.setShotsRequested(400);
    a.setStoppedEarly(true);
    Result b(1);
    b.record(0, 200);
    b.setShotsRequested(400);

    a.merge(b);
    EXPECT_EQ(a.shots(), 300u);
    EXPECT_EQ(a.shotsRequested(), 800u);
    EXPECT_TRUE(a.stoppedEarly());
}

TEST(ResultMetadata, MergeWithImplicitBudgetUsesShots)
{
    // One adaptive result (explicit budget) merged with a plain one
    // (budget = its shots).
    Result adaptive(1);
    adaptive.record(0, 128);
    adaptive.setShotsRequested(1024);
    adaptive.setStoppedEarly(true);
    Result plain(1);
    plain.record(1, 256);

    adaptive.merge(plain);
    EXPECT_EQ(adaptive.shotsRequested(), 1024u + 256u);
    EXPECT_TRUE(adaptive.stoppedEarly());
}

TEST(ResultRecord, ZeroCountAddsNoKey)
{
    Result r(3);
    r.record(5, 0);
    EXPECT_TRUE(r.rawCounts().empty());
    EXPECT_EQ(r.shots(), 0u);
    EXPECT_EQ(r.str(), "");
    r.record(5, 2);
    r.record(5, 0);
    EXPECT_EQ(r.rawCounts(), (std::map<std::uint64_t, std::size_t>{{5, 2}}));
}

TEST(ResultRecord, ZeroShotsOfAMeasurementFreeCircuitHaveNoKeys)
{
    // The sampled path records "all-zero register" shots in one call.
    Circuit c(2, 2);
    c.h(0).cx(0, 1);
    EXPECT_TRUE(StatevectorSimulator(1).run(c, 0).rawCounts().empty());
    EXPECT_TRUE(TrajectorySimulator(1).run(c, 0).rawCounts().empty());
    EXPECT_EQ(StatevectorSimulator(1).run(c, 3).rawCounts(),
              (std::map<std::uint64_t, std::size_t>{{0, 3}}));
}
