/** @file Tests for DeviceModel and the ibmqx4 calibration factory. */

#include <gtest/gtest.h>

#include "noise/device_model.hh"

namespace qra {
namespace {

TEST(DeviceModelTest, Ibmqx4Shape)
{
    const DeviceModel dev = DeviceModel::ibmqx4();
    EXPECT_EQ(dev.name(), "ibmqx4");
    EXPECT_EQ(dev.numQubits(), 5u);
    EXPECT_TRUE(dev.noiseModel().enabled());
    EXPECT_EQ(dev.couplingMap().edges().size(), 6u);
}

TEST(DeviceModelTest, Ibmqx4DirectedEdges)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const CouplingMap &map = device.couplingMap();
    // The six native directions.
    EXPECT_TRUE(map.hasEdge(1, 0));
    EXPECT_TRUE(map.hasEdge(2, 0));
    EXPECT_TRUE(map.hasEdge(2, 1));
    EXPECT_TRUE(map.hasEdge(3, 2));
    EXPECT_TRUE(map.hasEdge(3, 4));
    EXPECT_TRUE(map.hasEdge(4, 2));
    // Reverse directions are NOT native.
    EXPECT_FALSE(map.hasEdge(0, 1));
    EXPECT_FALSE(map.hasEdge(0, 2));
    EXPECT_FALSE(map.hasEdge(1, 2));
    // But pairs are connected bidirectionally.
    EXPECT_TRUE(map.connected(0, 1));
    EXPECT_TRUE(map.connected(2, 4));
    // Not every pair is coupled.
    EXPECT_FALSE(map.connected(0, 3));
    EXPECT_FALSE(map.connected(0, 4));
    EXPECT_FALSE(map.connected(1, 3));
    EXPECT_FALSE(map.connected(1, 4));
}

TEST(DeviceModelTest, Ibmqx4IsConnected)
{
    EXPECT_TRUE(DeviceModel::ibmqx4().couplingMap().isConnected());
}

TEST(DeviceModelTest, Ibmqx4NoiseMagnitudes)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel &noise = device.noiseModel();

    // CNOT noisier than single-qubit gates.
    Operation cx{.kind = OpKind::CX, .qubits = {1, 0}};
    Operation h{.kind = OpKind::H, .qubits = {0}};
    ASSERT_EQ(noise.channelsFor(cx).size(), 1u);
    ASSERT_EQ(noise.channelsFor(h).size(), 1u);

    // CNOT slower than 1q gates, measure slowest.
    Operation meas{.kind = OpKind::Measure, .qubits = {0}, .clbit = 0};
    EXPECT_GT(noise.opDuration(cx), noise.opDuration(h));
    EXPECT_GT(noise.opDuration(meas), noise.opDuration(cx));

    // Every qubit has relaxation and readout entries.
    for (Qubit q = 0; q < 5; ++q) {
        EXPECT_TRUE(noise.relaxationFor(q, 100.0).has_value()) << q;
        EXPECT_NE(noise.readoutFor(q), nullptr) << q;
    }
}

TEST(DeviceModelTest, ScaledNoiseDevice)
{
    const DeviceModel half = DeviceModel::ibmqx4().scaledNoise(0.5);
    EXPECT_TRUE(half.noiseModel().enabled());
    const DeviceModel off = DeviceModel::ibmqx4().scaledNoise(0.0);
    Operation cx{.kind = OpKind::CX, .qubits = {1, 0}};
    EXPECT_TRUE(off.noiseModel().channelsFor(cx).empty());
    // Coupling map is preserved.
    EXPECT_EQ(off.couplingMap().edges().size(), 6u);
}

} // namespace
} // namespace qra
