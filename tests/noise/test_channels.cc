/** @file Tests for Kraus channels and the standard channel factories. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "math/gates.hh"
#include "noise/channels.hh"
#include "noise/kraus.hh"

namespace qra {
namespace {

TEST(KrausChannelTest, CompletenessValidated)
{
    // Operators that do not satisfy sum K^t K = I are rejected.
    std::vector<Matrix> bad{gates::h() * Complex{0.5, 0.0}};
    EXPECT_THROW(KrausChannel(std::move(bad)), NoiseError);
}

TEST(KrausChannelTest, EmptyRejected)
{
    EXPECT_THROW(KrausChannel(std::vector<Matrix>{}), NoiseError);
}

TEST(KrausChannelTest, MixedDimensionsRejected)
{
    EXPECT_THROW(KrausChannel({gates::h(), gates::cx()}), NoiseError);
}

TEST(KrausChannelTest, UnitaryChannelIsIdentityCheck)
{
    KrausChannel id({Matrix::identity(2)});
    EXPECT_TRUE(id.isIdentity());
    KrausChannel x_chan({gates::x()});
    EXPECT_FALSE(x_chan.isIdentity());
}

TEST(KrausChannelTest, NumQubits)
{
    EXPECT_EQ(KrausChannel({gates::x()}).numQubits(), 1u);
    EXPECT_EQ(KrausChannel({gates::cx()}).numQubits(), 2u);
    EXPECT_EQ(KrausChannel({gates::ccx()}).numQubits(), 3u);
}

TEST(KrausChannelTest, ComposePreservesCptp)
{
    const KrausChannel composed =
        channels::amplitudeDamping(0.2).composeWith(
            channels::phaseDamping(0.3));
    EXPECT_TRUE(composed.isTracePreserving());
    EXPECT_EQ(composed.operators().size(), 4u);
}

TEST(KrausChannelTest, ComposeDimensionMismatchThrows)
{
    KrausChannel one({gates::x()});
    KrausChannel two({gates::cx()});
    EXPECT_THROW(one.composeWith(two), NoiseError);
}

TEST(ChannelsTest, AllFactoriesAreCptp)
{
    for (double p : {0.0, 0.01, 0.3, 0.9, 1.0}) {
        EXPECT_TRUE(channels::depolarizing1(p).isTracePreserving())
            << p;
        EXPECT_TRUE(channels::depolarizing2(p).isTracePreserving())
            << p;
        EXPECT_TRUE(channels::amplitudeDamping(p).isTracePreserving())
            << p;
        EXPECT_TRUE(channels::phaseDamping(p).isTracePreserving()) << p;
    }
}

TEST(ChannelsTest, ProbabilityRangeValidated)
{
    EXPECT_THROW(channels::depolarizing1(-0.1), NoiseError);
    EXPECT_THROW(channels::depolarizing1(1.1), NoiseError);
    EXPECT_THROW(channels::depolarizing2(2.0), NoiseError);
    EXPECT_THROW(channels::amplitudeDamping(-1e-9), NoiseError);
}

TEST(ChannelsTest, Depolarizing2Has16Operators)
{
    EXPECT_EQ(channels::depolarizing2(0.1).operators().size(), 16u);
}

TEST(ChannelsTest, ThermalRelaxationIsCptp)
{
    const KrausChannel tr =
        channels::thermalRelaxation(50000.0, 30000.0, 100.0);
    EXPECT_TRUE(tr.isTracePreserving());
}

TEST(ChannelsTest, ThermalRelaxationValidatesTimes)
{
    EXPECT_THROW(channels::thermalRelaxation(-1.0, 1.0, 1.0),
                 NoiseError);
    EXPECT_THROW(channels::thermalRelaxation(1.0, 3.0, 1.0),
                 NoiseError); // T2 > 2 T1
    EXPECT_THROW(channels::thermalRelaxation(1.0, 1.0, -5.0),
                 NoiseError);
}

TEST(ChannelsTest, ThermalRelaxationZeroDurationIsIdentityLike)
{
    const KrausChannel tr =
        channels::thermalRelaxation(50000.0, 30000.0, 0.0);
    // gamma = lambda = 0: first operator is the identity.
    EXPECT_TRUE(tr.operators()[0].isIdentity(1e-12));
}

TEST(ChannelsTest, CoherentErrorAccumulatesQuadratically)
{
    // After k applications of RX(eps) to |0>, P(1) = sin^2(k eps/2):
    // quadratic in k for small k, unlike stochastic noise which is
    // linear. Check the ratio P(4 steps) / P(1 step) ~ 16.
    auto p1_after = [](int k) {
        Matrix u = Matrix::identity(2);
        for (int i = 0; i < k; ++i)
            u = gates::rx(0.01) * u;
        return std::norm(u(1, 0));
    };
    const double ratio = p1_after(4) / p1_after(1);
    EXPECT_NEAR(ratio, 16.0, 0.1);
}

} // namespace
} // namespace qra
