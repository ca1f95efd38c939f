/** @file Tests for the Circuit IR and builder. */

#include <cstdint>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "common/error.hh"
#include "math/gates.hh"

namespace qra {
namespace {

TEST(CircuitTest, ConstructionBasics)
{
    Circuit c(3, 2, "demo");
    EXPECT_EQ(c.numQubits(), 3u);
    EXPECT_EQ(c.numClbits(), 2u);
    EXPECT_EQ(c.name(), "demo");
    EXPECT_TRUE(c.empty());
}

TEST(CircuitTest, ZeroQubitsThrows)
{
    EXPECT_THROW(Circuit(0), CircuitError);
}

TEST(CircuitTest, TooManyQubitsThrows)
{
    // The IR allows wide circuits (stabilizer backend) but guards
    // absurd sizes.
    EXPECT_NO_THROW(Circuit(100));
    EXPECT_THROW(Circuit(5000), CircuitError);
}

TEST(CircuitTest, BuilderChainsAndRecords)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c.ops()[0].kind, OpKind::H);
    EXPECT_EQ(c.ops()[1].kind, OpKind::CX);
    EXPECT_EQ(c.ops()[1].qubits, (std::vector<Qubit>{0, 1}));
    EXPECT_EQ(c.ops()[2].kind, OpKind::Measure);
    EXPECT_EQ(*c.ops()[2].clbit, 0u);
}

TEST(CircuitTest, QubitOutOfRangeThrows)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), CircuitError);
    EXPECT_THROW(c.cx(0, 5), CircuitError);
}

TEST(CircuitTest, DuplicateOperandThrows)
{
    Circuit c(2);
    EXPECT_THROW(c.cx(1, 1), CircuitError);
    Circuit c3(3);
    EXPECT_THROW(c3.ccx(0, 2, 2), CircuitError);
}

TEST(CircuitTest, ClbitOutOfRangeThrows)
{
    Circuit c(2, 1);
    EXPECT_THROW(c.measure(0, 1), CircuitError);
}

TEST(CircuitTest, MeasureWithoutClbitThrows)
{
    Circuit c(1, 1);
    Operation op{.kind = OpKind::Measure, .qubits = {0}};
    EXPECT_THROW(c.append(op), CircuitError);
}

TEST(CircuitTest, ParamCountValidated)
{
    Circuit c(1);
    Operation rx{.kind = OpKind::RX, .qubits = {0}, .params = {}};
    EXPECT_THROW(c.append(rx), CircuitError);
    Operation u{.kind = OpKind::U, .qubits = {0}, .params = {1.0}};
    EXPECT_THROW(c.append(u), CircuitError);
}

TEST(CircuitTest, PostSelectValueValidated)
{
    Circuit c(1);
    Operation ps{.kind = OpKind::PostSelect, .qubits = {0}};
    ps.postselectValue = 2;
    EXPECT_THROW(c.append(ps), CircuitError);
    EXPECT_NO_THROW(c.postSelect(0, 1));
}

TEST(CircuitTest, MeasureAllRequiresClbits)
{
    Circuit narrow(3, 2);
    EXPECT_THROW(narrow.measureAll(), CircuitError);
    Circuit wide(3, 3);
    wide.measureAll();
    EXPECT_EQ(wide.size(), 3u);
}

TEST(CircuitTest, DepthSerialVsParallel)
{
    Circuit serial(1);
    serial.h(0).h(0).h(0);
    EXPECT_EQ(serial.depth(), 3u);

    Circuit parallel(3);
    parallel.h(0).h(1).h(2);
    EXPECT_EQ(parallel.depth(), 1u);

    Circuit mixed(2);
    mixed.h(0).cx(0, 1).h(1);
    EXPECT_EQ(mixed.depth(), 3u);
}

TEST(CircuitTest, BarrierAddsNoDepth)
{
    Circuit c(2);
    c.h(0).barrier().h(1);
    EXPECT_EQ(c.depth(), 1u);
}

TEST(CircuitTest, BarrierSynchronises)
{
    // h(0); barrier; h(0) stays serial on the same wire.
    Circuit c(2);
    c.h(0).barrier().x(0);
    EXPECT_EQ(c.depth(), 2u);
}

TEST(CircuitTest, CountOps)
{
    Circuit c(2, 2);
    c.h(0).h(1).cx(0, 1).measure(0, 0);
    const auto counts = c.countOps();
    EXPECT_EQ(counts.at("h"), 2u);
    EXPECT_EQ(counts.at("cx"), 1u);
    EXPECT_EQ(counts.at("measure"), 1u);
}

TEST(CircuitTest, TwoQubitGateCount)
{
    Circuit c(3);
    c.h(0).cx(0, 1).cz(1, 2).swap(0, 2).t(1);
    EXPECT_EQ(c.twoQubitGateCount(), 3u);
}

TEST(CircuitTest, ComposeWithMapping)
{
    Circuit inner(2, 1);
    inner.h(0).cx(0, 1).measure(1, 0);

    Circuit outer(4, 3);
    outer.compose(inner, {2, 3}, {1});
    ASSERT_EQ(outer.size(), 3u);
    EXPECT_EQ(outer.ops()[0].qubits[0], 2u);
    EXPECT_EQ(outer.ops()[1].qubits, (std::vector<Qubit>{2, 3}));
    EXPECT_EQ(*outer.ops()[2].clbit, 1u);
}

TEST(CircuitTest, ComposeMapSizeMismatchThrows)
{
    Circuit inner(2);
    inner.h(0);
    Circuit outer(4);
    EXPECT_THROW(outer.compose(inner, {0}), CircuitError);
}

TEST(CircuitTest, ComposeMeasurementNeedsClbitMap)
{
    Circuit inner(1, 1);
    inner.measure(0, 0);
    Circuit outer(2, 2);
    EXPECT_THROW(outer.compose(inner, {0}), CircuitError);
}

TEST(CircuitTest, InverseReversesAndInverts)
{
    Circuit c(2);
    c.h(0).s(0).cx(0, 1).t(1);
    Circuit inv = c.inverse();
    ASSERT_EQ(inv.size(), 4u);
    EXPECT_EQ(inv.ops()[0].kind, OpKind::Tdg);
    EXPECT_EQ(inv.ops()[1].kind, OpKind::CX);
    EXPECT_EQ(inv.ops()[2].kind, OpKind::Sdg);
    EXPECT_EQ(inv.ops()[3].kind, OpKind::H);
}

TEST(CircuitTest, InverseOfParameterizedGates)
{
    Circuit c(1);
    c.rx(0.3, 0).u(0.1, 0.2, 0.3, 0);
    Circuit inv = c.inverse();
    EXPECT_EQ(inv.ops()[0].kind, OpKind::U);
    EXPECT_DOUBLE_EQ(inv.ops()[0].params[0], -0.1);
    EXPECT_DOUBLE_EQ(inv.ops()[0].params[1], -0.3);
    EXPECT_DOUBLE_EQ(inv.ops()[0].params[2], -0.2);
    EXPECT_EQ(inv.ops()[1].kind, OpKind::RX);
    EXPECT_DOUBLE_EQ(inv.ops()[1].params[0], -0.3);
}

TEST(CircuitTest, InverseOfMeasureThrows)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    EXPECT_THROW(c.inverse(), CircuitError);
}

TEST(CircuitTest, AddQubitsAndClbits)
{
    Circuit c(2, 1);
    const Qubit first_new = c.addQubits(2);
    EXPECT_EQ(first_new, 2u);
    EXPECT_EQ(c.numQubits(), 4u);
    c.h(3); // now valid
    const Clbit new_clbit = c.addClbits(1);
    EXPECT_EQ(new_clbit, 1u);
    c.measure(3, new_clbit);
}

TEST(CircuitTest, RefusedWideningLeavesSizesUnchanged)
{
    Circuit c(4090, 60);
    EXPECT_THROW(c.addQubits(7), CircuitError);
    EXPECT_THROW(c.addQubits(SIZE_MAX), CircuitError);
    EXPECT_EQ(c.numQubits(), 4090u);
    EXPECT_THROW(c.addClbits(4), CircuitError);
    EXPECT_THROW(c.addClbits(SIZE_MAX), CircuitError);
    EXPECT_EQ(c.numClbits(), 60u);
    EXPECT_EQ(c.addQubits(6), 4090u);
    EXPECT_EQ(c.addClbits(3), 60u);
    EXPECT_EQ(c.numQubits(), 4096u);
    EXPECT_EQ(c.numClbits(), 63u);
}

TEST(CircuitTest, WideBarrierKeepsEveryOperand)
{
    // Only a barrier may exceed three operands; its list lives on the
    // heap and must copy, move and compare like a short one.
    Circuit c(6);
    c.barrier().barrier({5, 0, 3, 1}).h(2);
    const Circuit copy = c;
    EXPECT_EQ(copy, c);
    EXPECT_EQ(copy.hash(), c.hash());
    const Operands &all = copy.ops()[0].qubits;
    ASSERT_EQ(all.size(), 6u);
    for (Qubit q = 0; q < 6; ++q)
        EXPECT_EQ(all[q], q);
    const Operands some = copy.ops()[1].qubits;
    EXPECT_EQ(some, (Operands{5, 0, 3, 1}));
    EXPECT_NE(some, (Operands{5, 0, 3}));
    Operation moved = std::move(c.takeOps()[1]);
    EXPECT_EQ(moved.qubits, some);
    moved = copy.ops()[2];
    EXPECT_EQ(moved.qubits, (Operands{2}));
    EXPECT_THROW(Circuit(3).append({.kind = OpKind::Barrier,
                                    .qubits = {0, 1, 2, 3}}),
                 CircuitError);
}

TEST(CircuitTest, InsertAtPosition)
{
    Circuit c(1);
    c.h(0).h(0);
    c.insert(1, Operation{.kind = OpKind::X, .qubits = {0}});
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.ops()[1].kind, OpKind::X);
    EXPECT_THROW(
        c.insert(99, Operation{.kind = OpKind::X, .qubits = {0}}),
        CircuitError);
}

TEST(CircuitTest, OperationMatrixMatchesGateLibrary)
{
    Operation h{.kind = OpKind::H, .qubits = {0}};
    EXPECT_TRUE(h.matrix().approxEqual(gates::h()));
    Operation cx{.kind = OpKind::CX, .qubits = {0, 1}};
    EXPECT_TRUE(cx.matrix().approxEqual(gates::cx()));
    Operation meas{.kind = OpKind::Measure, .qubits = {0}, .clbit = 0};
    EXPECT_THROW(meas.matrix(), CircuitError);
}

TEST(CircuitTest, OperationStr)
{
    Operation cx{.kind = OpKind::CX, .qubits = {1, 0}};
    EXPECT_EQ(cx.str(), "cx q1, q0");
    Operation m{.kind = OpKind::Measure, .qubits = {2}, .clbit = 1};
    EXPECT_EQ(m.str(), "measure q2 -> c1");
}

TEST(CircuitTest, EqualityComparesOps)
{
    Circuit a(2), b(2);
    a.h(0).cx(0, 1);
    b.h(0).cx(0, 1);
    EXPECT_TRUE(a == b);
    b.x(0);
    EXPECT_FALSE(a == b);
}

} // namespace
} // namespace qra
