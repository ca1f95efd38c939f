/** @file Tests for moment scheduling. */

#include <gtest/gtest.h>

#include "circuit/schedule.hh"

namespace qra {
namespace {

TEST(ScheduleTest, ParallelGatesShareMoment)
{
    Circuit c(3);
    c.h(0).h(1).h(2);
    const auto moments = computeMoments(c);
    ASSERT_EQ(moments.size(), 1u);
    EXPECT_EQ(moments[0].opIndices.size(), 3u);
}

TEST(ScheduleTest, DependentGatesSerialize)
{
    Circuit c(2);
    c.h(0).cx(0, 1).h(1);
    const auto moments = computeMoments(c);
    ASSERT_EQ(moments.size(), 3u);
    EXPECT_EQ(moments[0].opIndices, (std::vector<std::size_t>{0}));
    EXPECT_EQ(moments[1].opIndices, (std::vector<std::size_t>{1}));
    EXPECT_EQ(moments[2].opIndices, (std::vector<std::size_t>{2}));
}

TEST(ScheduleTest, IndependentChainsPack)
{
    Circuit c(4);
    c.h(0).x(0).h(2).x(2).y(1);
    const auto moments = computeMoments(c);
    ASSERT_EQ(moments.size(), 2u);
    // Moment 0: h(0), h(2), y(1); moment 1: x(0), x(2).
    EXPECT_EQ(moments[0].opIndices.size(), 3u);
    EXPECT_EQ(moments[1].opIndices.size(), 2u);
}

TEST(ScheduleTest, BarrierForcesNewMoment)
{
    Circuit c(2);
    c.h(0).barrier().h(1);
    const auto moments = computeMoments(c);
    // Without the barrier h(1) would share moment 0.
    ASSERT_EQ(moments.size(), 2u);
    EXPECT_EQ(moments[0].opIndices, (std::vector<std::size_t>{0}));
    EXPECT_EQ(moments[1].opIndices, (std::vector<std::size_t>{2}));
}

TEST(ScheduleTest, PartialBarrierOnlyFencesItsQubits)
{
    Circuit c(3);
    c.h(0).barrier({0, 1}).h(1).h(2);
    const auto moments = computeMoments(c);
    ASSERT_EQ(moments.size(), 2u);
    // h(2) is not fenced: it lands in moment 0.
    EXPECT_EQ(moments[0].opIndices.size(), 2u); // h(0), h(2)
    EXPECT_EQ(moments[1].opIndices.size(), 1u); // h(1)
}

TEST(ScheduleTest, TimedMomentsAccumulate)
{
    Circuit c(2);
    c.h(0).cx(0, 1).h(0);
    auto duration = [](const Operation &op) {
        return op.kind == OpKind::CX ? 300.0 : 80.0;
    };
    const auto timed = computeTimedMoments(c, duration);
    ASSERT_EQ(timed.size(), 3u);
    EXPECT_DOUBLE_EQ(timed[0].startNs, 0.0);
    EXPECT_DOUBLE_EQ(timed[0].durationNs, 80.0);
    EXPECT_DOUBLE_EQ(timed[1].startNs, 80.0);
    EXPECT_DOUBLE_EQ(timed[1].durationNs, 300.0);
    EXPECT_DOUBLE_EQ(timed[2].startNs, 380.0);
    EXPECT_DOUBLE_EQ(scheduleDuration(timed), 460.0);
}

TEST(ScheduleTest, MomentDurationIsSlowestMember)
{
    Circuit c(3);
    c.h(0).cx(1, 2); // same moment
    auto duration = [](const Operation &op) {
        return op.kind == OpKind::CX ? 300.0 : 80.0;
    };
    const auto timed = computeTimedMoments(c, duration);
    ASSERT_EQ(timed.size(), 1u);
    EXPECT_DOUBLE_EQ(timed[0].durationNs, 300.0);
}

TEST(ScheduleTest, EmptyCircuit)
{
    Circuit c(1);
    EXPECT_TRUE(computeMoments(c).empty());
    EXPECT_DOUBLE_EQ(
        scheduleDuration(computeTimedMoments(
            c, [](const Operation &) { return 1.0; })),
        0.0);
}

TEST(ScheduleTest, MidCircuitMeasurementsAreThoseReusedLater)
{
    // q0: measured, reset, measured again (terminal). q1: measured
    // before a barrier only (terminal). q2: measured, then
    // post-selected (mid-circuit).
    Circuit c(3, 3);
    c.measure(0, 0).reset(0).measure(0, 0);
    c.measure(1, 1).barrier();
    c.measure(2, 2).postSelect(2, 0);
    const std::vector<bool> want = {true,  false, false, false,
                                    false, true,  false};
    EXPECT_EQ(midCircuitMeasurements(c), want);
}

} // namespace
} // namespace qra
