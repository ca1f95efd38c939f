/** @file Tests for the full transpiler pipeline. */

#include <gtest/gtest.h>

#include "noise/device_model.hh"
#include "testutil.hh"
#include "transpile/transpiler.hh"

namespace qra {
namespace {

/** Every 2q gate lies on a native directed edge. */
void
expectDeviceCompatible(const Circuit &c, const CouplingMap &map)
{
    for (const Operation &op : c.ops()) {
        if (op.qubits.size() != 2 || !opIsUnitary(op.kind))
            continue;
        if (op.kind == OpKind::CX) {
            EXPECT_TRUE(map.hasEdge(op.qubits[0], op.qubits[1]))
                << op.str();
        } else {
            EXPECT_TRUE(map.connected(op.qubits[0], op.qubits[1]))
                << op.str();
        }
    }
}

TEST(TranspilerTest, BellCircuitOnIbmqx4)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    const TranspileResult result = transpile(c, map);
    expectDeviceCompatible(result.circuit, map);
    EXPECT_EQ(result.circuit.numQubits(), 5u);
    EXPECT_EQ(result.circuit.numClbits(), 2u);
}

TEST(TranspilerTest, PreservesMeasurementWiring)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(2, 2);
    c.x(0).measure(0, 0).measure(1, 1);
    const TranspileResult result = transpile(c, map);

    // Executing the transpiled circuit gives the same register
    // distribution (clbits are independent of the physical layout).
    StatevectorSimulator sim(1);
    const Result ideal = sim.run(c, 200);
    const Result mapped = sim.run(result.circuit, 200);
    EXPECT_EQ(ideal.rawCounts(), mapped.rawCounts());
}

TEST(TranspilerTest, DistantPairGetsRouted)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    // Every pair interacts: no layout embeds that in ibmqx4's bowtie.
    Circuit c(5, 5);
    c.h(0);
    for (Qubit a = 0; a < 5; ++a)
        for (Qubit b = a + 1; b < 5; ++b)
            c.cx(a, b);
    c.measureAll();
    const TranspileResult result = transpile(c, map);
    expectDeviceCompatible(result.circuit, map);
    EXPECT_GT(result.insertedSwaps + result.reversedCx, 0u);
}

TEST(TranspilerTest, GreedyLayoutAvoidsSwapsWherePossible)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(3, 3);
    c.h(0).cx(0, 1).cx(0, 2).measureAll();
    const TranspileResult greedy = transpile(c, map);
    EXPECT_EQ(greedy.insertedSwaps, 0u);
}

TEST(TranspilerTest, SemanticsPreservedThroughPipeline)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(3, 3);
    c.h(0).cx(0, 1).t(1).cx(1, 2).h(2).measureAll();
    const TranspileResult result = transpile(c, map);

    StatevectorSimulator sim(99);
    const Result ideal = sim.run(c, 20000);
    sim.seed(99);
    const Result mapped = sim.run(result.circuit, 20000);

    // Compare distributions (both over the payload clbits).
    for (const auto &[key, n] : ideal.rawCounts()) {
        EXPECT_NEAR(double(n) / 20000.0,
                    mapped.probability(key), 0.02)
            << "outcome " << key;
    }
}

TEST(TranspilerTest, CcxLoweredBeforeRouting)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(3, 3);
    c.ccx(0, 1, 2).measureAll();
    const TranspileResult result = transpile(c, map);
    expectDeviceCompatible(result.circuit, map);
    EXPECT_EQ(result.circuit.countOps().count("ccx"), 0u);
}

TEST(TranspilerTest, StrSummarises)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(2);
    c.cx(0, 1);
    const TranspileResult result = transpile(c, map);
    EXPECT_NE(result.str().find("transpiled:"), std::string::npos);
}

} // namespace
} // namespace qra
