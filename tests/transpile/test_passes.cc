/** @file Tests for router, direction fixer, decomposer, optimiser. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "noise/device_model.hh"
#include "testutil.hh"
#include "transpile/decomposer.hh"
#include "transpile/direction_fixer.hh"
#include "transpile/optimizer.hh"
#include "transpile/router.hh"

namespace qra {
namespace {

CouplingMap
lineMap(std::size_t n)
{
    CouplingMap map(n);
    for (Qubit q = 0; q + 1 < n; ++q)
        map.addEdge(q, q + 1);
    return map;
}

TEST(RouterTest, CoupledGatePassesThrough)
{
    const CouplingMap map = lineMap(3);
    Circuit c(3);
    c.cx(0, 1);
    const RoutedCircuit routed = routeCircuit(c, map, Layout(3));
    EXPECT_EQ(routed.insertedSwaps, 0u);
    EXPECT_EQ(routed.circuit.size(), 1u);
}

TEST(RouterTest, InsertsSwapsForDistantPair)
{
    const CouplingMap map = lineMap(4);
    Circuit c(4);
    c.cx(0, 3);
    const RoutedCircuit routed = routeCircuit(c, map, Layout(4));
    EXPECT_EQ(routed.insertedSwaps, 2u);
    // Every 2q gate in the output must be coupled.
    for (const Operation &op : routed.circuit.ops()) {
        if (op.qubits.size() == 2) {
            EXPECT_TRUE(map.connected(op.qubits[0], op.qubits[1]))
                << op.str();
        }
    }
}

TEST(RouterTest, RoutedCircuitPreservesSemantics)
{
    const CouplingMap map = lineMap(4);
    Circuit c(4);
    c.h(0).cx(0, 3).cx(1, 2).h(3);
    const RoutedCircuit routed = routeCircuit(c, map, Layout(4));

    // Execute both; undo the final layout permutation on the routed
    // result by comparing marginals of virtual qubits.
    StatevectorSimulator sim(3);
    const StateVector ideal = sim.finalState(c);
    const StateVector mapped = sim.finalState(routed.circuit);

    for (Qubit v = 0; v < 4; ++v) {
        const Qubit p = routed.finalLayout.physical(v);
        EXPECT_NEAR(ideal.probabilityOfOne(v),
                    mapped.probabilityOfOne(p), 1e-9)
            << "virtual " << v;
    }
}

TEST(RouterTest, AnchoredWireBindsNextToMovedAnchor)
{
    // 2x3 grid:  0 - 1 - 2
    //            |   |   |
    //            3 - 4 - 5
    CouplingMap map(6);
    for (const auto &[a, b] : {std::pair<Qubit, Qubit>{0, 1},
                               {1, 2}, {3, 4}, {4, 5}, {0, 3},
                               {1, 4}, {2, 5}})
        map.addEdge(a, b);
    // Wires 0-2 are the payload, wire 3 is an ancilla anchored to
    // wire 0; cx(0, 2) swaps wire 0 from slot 0 to slot 1 first.
    Circuit c(4);
    c.cx(0, 2).cx(3, 0);
    const Layout initial(6);

    const RoutedCircuit anchored =
        routeCircuit(c, map, initial, WireAnchors{{}, {}, {}, {0}});
    // The ancilla takes the free slot next to wire 0's *current*
    // position (4, beside 1), not its initial slot 3: the binding is
    // a relabelling, so the only gate added is the routing SWAP.
    EXPECT_EQ(anchored.insertedSwaps, 1u);
    EXPECT_EQ(anchored.circuit.size(), 3u);
    EXPECT_EQ(anchored.finalLayout.physical(0), 1u);
    EXPECT_EQ(anchored.finalLayout.physical(3), 4u);
    EXPECT_EQ(anchored.circuit.ops().back().qubits,
              (std::vector<Qubit>{4, 1}));

    // Without anchors the ancilla starts at slot 3 and needs a second
    // SWAP; empty anchor lists are the same as none.
    const RoutedCircuit plain = routeCircuit(c, map, initial);
    EXPECT_EQ(plain.insertedSwaps, 2u);
    const RoutedCircuit empty =
        routeCircuit(c, map, initial, WireAnchors(4));
    EXPECT_TRUE(empty.circuit == plain.circuit);
    EXPECT_EQ(empty.finalLayout.virtualToPhysical(),
              plain.finalLayout.virtualToPhysical());
}

TEST(RouterTest, CcxRejected)
{
    const CouplingMap map = lineMap(3);
    Circuit c(3);
    c.ccx(0, 1, 2);
    EXPECT_THROW(routeCircuit(c, map, Layout(3)), TranspileError);
}

TEST(RouterTest, DisconnectedMapRejected)
{
    CouplingMap map(4);
    map.addEdge(0, 1);
    map.addEdge(2, 3);
    Circuit c(4);
    c.cx(0, 3);
    EXPECT_THROW(routeCircuit(c, map, Layout(4)), TranspileError);
}

TEST(DirectionFixerTest, NativeDirectionUntouched)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(5);
    c.cx(1, 0);
    const DirectionFixResult fixed = fixDirections(c, map);
    EXPECT_EQ(fixed.reversedCx, 0u);
    EXPECT_EQ(fixed.circuit.size(), 1u);
}

TEST(DirectionFixerTest, ReversedCxGetsHadamards)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(5);
    c.cx(0, 1); // native is 1->0
    const DirectionFixResult fixed = fixDirections(c, map);
    EXPECT_EQ(fixed.reversedCx, 1u);
    EXPECT_EQ(fixed.circuit.size(), 5u); // 4 H + 1 CX
    const auto counts = fixed.circuit.countOps();
    EXPECT_EQ(counts.at("h"), 4u);
    EXPECT_EQ(counts.at("cx"), 1u);
}

TEST(DirectionFixerTest, ReversalPreservesUnitary)
{
    CouplingMap map(2);
    map.addEdge(1, 0);
    Circuit c(2);
    c.cx(0, 1);
    const DirectionFixResult fixed = fixDirections(c, map);
    test::expectUnitaryEquivalent(c, fixed.circuit);
}

TEST(DirectionFixerTest, SymmetricGatesPass)
{
    CouplingMap map(2);
    map.addEdge(1, 0);
    Circuit c(2);
    c.cz(0, 1).swap(0, 1);
    const DirectionFixResult fixed = fixDirections(c, map);
    EXPECT_EQ(fixed.reversedCx, 0u);
    EXPECT_EQ(fixed.circuit.size(), 2u);
}

TEST(DirectionFixerTest, UncoupledPairRejected)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(5);
    c.cx(0, 3);
    EXPECT_THROW(fixDirections(c, map), TranspileError);
}

TEST(DecomposerTest, SwapBecomesThreeCx)
{
    Circuit c(2);
    c.swap(0, 1);
    const Circuit lowered = decompose(c);
    EXPECT_EQ(lowered.countOps().at("cx"), 3u);
    test::expectUnitaryEquivalent(c, lowered);
}

TEST(DecomposerTest, CcxDecompositionIsCorrect)
{
    Circuit c(3);
    c.ccx(0, 1, 2);
    const Circuit lowered = decompose(c);
    EXPECT_EQ(lowered.countOps().at("cx"), 6u);
    EXPECT_EQ(lowered.countOps().count("ccx"), 0u);
    test::expectUnitaryEquivalent(c, lowered);
}

TEST(OptimizerTest, CancelsAdjacentInversePairs)
{
    Circuit c(2);
    c.h(0).h(0).cx(0, 1).cx(0, 1).s(1).sdg(1).t(0).tdg(0).x(1).x(1);
    const OptimizeResult opt = optimizeCircuit(c);
    EXPECT_TRUE(opt.circuit.empty());
    EXPECT_EQ(opt.cancelledGates, 10u);
}

TEST(OptimizerTest, KeepsNonCancellingGates)
{
    Circuit c(2);
    c.h(0).cx(0, 1).h(0);
    const OptimizeResult opt = optimizeCircuit(c);
    EXPECT_EQ(opt.circuit.size(), 3u);
    EXPECT_EQ(opt.cancelledGates, 0u);
}

TEST(OptimizerTest, DifferentOperandsDoNotCancel)
{
    Circuit c(3);
    c.cx(0, 1).cx(1, 0).cx(0, 2).cx(0, 2);
    const OptimizeResult opt = optimizeCircuit(c);
    // Only the cx(0,2) pair cancels.
    EXPECT_EQ(opt.circuit.size(), 2u);
}

TEST(OptimizerTest, BarrierBlocksCancellation)
{
    Circuit c(1);
    c.h(0).barrier().h(0);
    const OptimizeResult opt = optimizeCircuit(c);
    EXPECT_EQ(opt.circuit.countOps().at("h"), 2u);
}

TEST(OptimizerTest, MergesRotations)
{
    Circuit c(1);
    c.rx(0.3, 0).rx(0.4, 0);
    const OptimizeResult opt = optimizeCircuit(c);
    ASSERT_EQ(opt.circuit.size(), 1u);
    EXPECT_NEAR(opt.circuit.ops()[0].params[0], 0.7, 1e-12);
    EXPECT_EQ(opt.mergedRotations, 1u);
}

TEST(OptimizerTest, MergedNullRotationVanishes)
{
    Circuit c(1);
    c.rz(1.1, 0).rz(-1.1, 0);
    const OptimizeResult opt = optimizeCircuit(c);
    EXPECT_TRUE(opt.circuit.empty());
}

TEST(OptimizerTest, CascadingCancellation)
{
    // x h h x collapses completely via repeated passes.
    Circuit c(1);
    c.x(0).h(0).h(0).x(0);
    const OptimizeResult opt = optimizeCircuit(c);
    EXPECT_TRUE(opt.circuit.empty());
}

TEST(OptimizerTest, PreservesSemantics)
{
    Circuit c(2);
    c.h(0).t(0).tdg(0).cx(0, 1).x(1).x(1).s(0);
    const OptimizeResult opt = optimizeCircuit(c);
    test::expectUnitaryEquivalent(c, opt.circuit);
}

} // namespace
} // namespace qra
