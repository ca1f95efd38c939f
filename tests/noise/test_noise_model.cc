/** @file Tests for the NoiseModel configuration and queries. */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "noise/device_model.hh"
#include "noise/noise_model.hh"

namespace qra {
namespace {

TEST(NoiseModelTest, EmptyModelIsDisabled)
{
    NoiseModel noise;
    EXPECT_FALSE(noise.enabled());
    Operation h{.kind = OpKind::H, .qubits = {0}};
    EXPECT_TRUE(noise.channelsFor(h).empty());
    EXPECT_EQ(noise.readoutFor(0), nullptr);
    EXPECT_FALSE(noise.relaxationFor(0, 100.0).has_value());
    EXPECT_DOUBLE_EQ(noise.opDuration(h), 0.0);
}

TEST(NoiseModelTest, GateErrorByKind)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);
    EXPECT_TRUE(noise.enabled());

    Operation cx{.kind = OpKind::CX, .qubits = {0, 1}};
    const auto chans = noise.channelsFor(cx);
    ASSERT_EQ(chans.size(), 1u);
    EXPECT_EQ(chans[0].qubits, (std::vector<Qubit>{0, 1}));
    EXPECT_EQ(chans[0].channel.numQubits(), 2u);

    Operation h{.kind = OpKind::H, .qubits = {0}};
    EXPECT_TRUE(noise.channelsFor(h).empty());
}

TEST(NoiseModelTest, PerOperandOverridesKind)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.01);
    noise.setGateError(OpKind::CX, {1, 0}, 0.0); // edge 1->0 perfect

    Operation generic{.kind = OpKind::CX, .qubits = {2, 3}};
    EXPECT_EQ(noise.channelsFor(generic).size(), 1u);

    Operation calibrated{.kind = OpKind::CX, .qubits = {1, 0}};
    EXPECT_TRUE(noise.channelsFor(calibrated).empty());
}

TEST(NoiseModelTest, OperandOrderMatters)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, {0, 1}, 0.0);
    noise.setGateError(OpKind::CX, 0.5);
    Operation reversed{.kind = OpKind::CX, .qubits = {1, 0}};
    // {1,0} has no per-operand entry: falls back to kind default.
    EXPECT_EQ(noise.channelsFor(reversed).size(), 1u);
}

TEST(NoiseModelTest, ConfigValidation)
{
    NoiseModel noise;
    EXPECT_THROW(noise.setGateError(OpKind::Measure, 0.1), NoiseError);
    EXPECT_THROW(noise.setGateError(OpKind::H, 1.5), NoiseError);
    EXPECT_THROW(noise.setGateError(OpKind::CX, {0}, 0.1), NoiseError);
    EXPECT_THROW(noise.setGateDuration(OpKind::H, -1.0), NoiseError);
    EXPECT_THROW(noise.setQubitRelaxation(0, -1.0, 1.0), NoiseError);
    EXPECT_THROW(noise.setQubitRelaxation(0, 1000.0, 2001.0),
                 NoiseError);
}

TEST(NoiseModelTest, RelaxationQueries)
{
    NoiseModel noise;
    noise.setQubitRelaxation(2, 50000.0, 25000.0);
    EXPECT_FALSE(noise.relaxationFor(0, 100.0).has_value());
    EXPECT_FALSE(noise.relaxationFor(2, 0.0).has_value());
    const auto chan = noise.relaxationFor(2, 100.0);
    ASSERT_TRUE(chan.has_value());
    EXPECT_TRUE(chan->isTracePreserving());
}

TEST(NoiseModelTest, DurationLookup)
{
    NoiseModel noise;
    noise.setGateDuration(OpKind::CX, 350.0);
    Operation cx{.kind = OpKind::CX, .qubits = {0, 1}};
    EXPECT_DOUBLE_EQ(noise.opDuration(cx), 350.0);
}

TEST(NoiseModelTest, ReadoutLookup)
{
    NoiseModel noise;
    noise.setReadoutError(1, ReadoutError(0.02, 0.03));
    EXPECT_EQ(noise.readoutFor(0), nullptr);
    ASSERT_NE(noise.readoutFor(1), nullptr);
    EXPECT_DOUBLE_EQ(noise.readoutFor(1)->pRead1Given0(), 0.02);

    // Perfect readout entries behave as absent.
    noise.setReadoutError(2, ReadoutError(0.0, 0.0));
    EXPECT_EQ(noise.readoutFor(2), nullptr);
}

TEST(NoiseModelTest, ScaledZeroDisablesEverything)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.1);
    noise.setQubitRelaxation(0, 1000.0, 1000.0);
    noise.setReadoutError(0, ReadoutError(0.1, 0.1));

    const NoiseModel off = noise.scaled(0.0);
    Operation cx{.kind = OpKind::CX, .qubits = {0, 1}};
    EXPECT_TRUE(off.channelsFor(cx).empty());
    EXPECT_EQ(off.readoutFor(0), nullptr);
    EXPECT_FALSE(off.relaxationFor(0, 100.0).has_value());
}

TEST(NoiseModelTest, ScaledClampsProbabilities)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.4);
    const NoiseModel heavy = noise.scaled(10.0);
    Operation cx{.kind = OpKind::CX, .qubits = {0, 1}};
    // Scaled to 4.0, clamped to 1.0: channel still valid.
    const auto chans = heavy.channelsFor(cx);
    ASSERT_EQ(chans.size(), 1u);
    EXPECT_TRUE(chans[0].channel.isTracePreserving());
}

TEST(NoiseModelTest, ScaledNegativeThrows)
{
    NoiseModel noise;
    EXPECT_THROW(noise.scaled(-1.0), NoiseError);
}

TEST(NoiseModelTest, ReadoutErrorSampler)
{
    ReadoutError ro(1.0, 0.0); // always misread 0 as 1
    Rng rng(1);
    EXPECT_EQ(ro.sampleReadout(0, rng), 1);
    EXPECT_EQ(ro.sampleReadout(1, rng), 1);
    EXPECT_DOUBLE_EQ(ro.confusion(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(ro.confusion(1, 1), 1.0);
    EXPECT_THROW(ReadoutError(-0.1, 0.0), NoiseError);
}

TEST(NoiseModelTest, CcxGetsPairwiseChannels)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CCX, 0.05);
    Operation ccx{.kind = OpKind::CCX, .qubits = {0, 1, 2}};
    const auto chans = noise.channelsFor(ccx);
    EXPECT_EQ(chans.size(), 2u);
}

TEST(NoiseModelTest, FingerprintFollowsEverySetter)
{
    NoiseModel noise;
    std::vector<std::uint64_t> seen = {noise.fingerprint()};
    const auto changed = [&](const char *what) {
        EXPECT_EQ(std::count(seen.begin(), seen.end(), noise.fingerprint()),
                  0)
            << what;
        seen.push_back(noise.fingerprint());
    };
    noise.setGateError(OpKind::CX, 0.01);
    changed("gate error");
    noise.setGateError(OpKind::CX, {1, 0}, 0.02);
    changed("operand gate error");
    noise.setGateDuration(OpKind::CX, 300.0);
    changed("gate duration");
    noise.setQubitRelaxation(0, 5.0e4, 4.0e4);
    changed("relaxation");
    noise.setReadoutError(0, ReadoutError(0.02, 0.03));
    changed("readout");
    noise.setGateError(OpKind::CX, {1, 0}, 0.03);
    changed("operand gate error overwritten");
    // A refused setter leaves the value alone.
    EXPECT_THROW(noise.setGateError(OpKind::CX, {0}, 0.1), NoiseError);
    EXPECT_EQ(noise.fingerprint(), seen.back());

    NoiseModel reversed;
    reversed.setReadoutError(0, ReadoutError(0.02, 0.03));
    reversed.setQubitRelaxation(0, 5.0e4, 4.0e4);
    reversed.setGateDuration(OpKind::CX, 300.0);
    reversed.setGateError(OpKind::CX, {1, 0}, 0.03);
    reversed.setGateError(OpKind::CX, 0.01);
    EXPECT_EQ(reversed.fingerprint(), noise.fingerprint());
    EXPECT_EQ(noise.scaled(1.0).fingerprint(), noise.fingerprint());
    EXPECT_NE(noise.scaled(0.5).fingerprint(), noise.fingerprint());
}

// The stored fingerprint hashes exactly what the on-demand walk over
// the five maps hashed, so cache keys derived from it do not move.
TEST(NoiseModelTest, FingerprintValuesArePinned)
{
    EXPECT_EQ(NoiseModel().fingerprint(), 0x40d69e0cf0f65c45ULL);
    EXPECT_EQ(DeviceModel::ibmqx4().noiseModel().fingerprint(),
              0xe2ccc711b97cd6d3ULL);
}

} // namespace
} // namespace qra
