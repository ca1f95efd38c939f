/** @file Tests for the StateVector backend. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "math/gates.hh"
#include "sim/state_vector.hh"
#include "testutil.hh"

namespace qra {
namespace {

TEST(StateVectorTest, InitialisesToAllZeros)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);
    for (BasisIndex i = 1; i < 8; ++i)
        EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, 1e-12);
}

TEST(StateVectorTest, SizeLimits)
{
    EXPECT_THROW(StateVector(0), SimulationError);
    EXPECT_THROW(StateVector(25), SimulationError);
}

TEST(StateVectorTest, FromAmplitudesNormalises)
{
    StateVector sv = StateVector::fromAmplitudes({2.0, 0.0});
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);
    EXPECT_THROW(StateVector::fromAmplitudes({1.0, 0.0, 0.0}),
                 SimulationError);
}

TEST(StateVectorTest, HadamardCreatesPlus)
{
    StateVector sv(1);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    EXPECT_NEAR(sv.amplitude(0).real(), kInvSqrt2, 1e-12);
    EXPECT_NEAR(sv.amplitude(1).real(), kInvSqrt2, 1e-12);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, 1e-12);
}

TEST(StateVectorTest, XFlips)
{
    StateVector sv(2);
    sv.applyUnitary({.kind = OpKind::X, .qubits = {1}});
    EXPECT_NEAR(std::abs(sv.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVectorTest, BellStateConstruction)
{
    StateVector sv(2);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    EXPECT_NEAR(std::abs(sv.amplitude(0b00)), kInvSqrt2, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitude(0b11)), kInvSqrt2, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitude(0b01)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitude(0b10)), 0.0, 1e-12);
}

TEST(StateVectorTest, GhzConstruction)
{
    StateVector sv(3);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {1, 2}});
    EXPECT_NEAR(std::abs(sv.amplitude(0b000)), kInvSqrt2, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitude(0b111)), kInvSqrt2, 1e-12);
}

TEST(StateVectorTest, CxRespectsOperandOrder)
{
    // Control = qubit 1, target = qubit 0.
    StateVector sv(2);
    sv.applyUnitary({.kind = OpKind::X, .qubits = {1}}); // |10>
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {1, 0}});
    EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1.0, 1e-12); // |11>
}

TEST(StateVectorTest, GeneralMatrixPathMatchesSpecialised)
{
    // Apply CX twice: once via the fast path, once as a raw matrix.
    StateVector a(3), b(3);
    a.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    b.applyUnitary({.kind = OpKind::H, .qubits = {1}});

    a.applyUnitary({.kind = OpKind::CX, .qubits = {1, 2}});
    b.applyMatrix(gates::cx(), {1, 2});
    test::expectAmplitudesNear(a.amplitudes(), b.amplitudes());
}

TEST(StateVectorTest, ThreeQubitMatrixApplication)
{
    StateVector a(3), b(3);
    a.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    a.applyUnitary({.kind = OpKind::X, .qubits = {1}});
    b.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    b.applyUnitary({.kind = OpKind::X, .qubits = {1}});

    a.applyUnitary({.kind = OpKind::CCX, .qubits = {0, 1, 2}});
    b.applyMatrix(gates::ccx(), {0, 1, 2});
    test::expectAmplitudesNear(a.amplitudes(), b.amplitudes());
    EXPECT_NEAR(std::abs(a.amplitude(0b111)), 1.0, 1e-12);
}

TEST(StateVectorTest, NonAdjacentTargets)
{
    // CX between qubits 0 and 2 of a 3-qubit register.
    StateVector sv(3);
    sv.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 2}});
    EXPECT_NEAR(std::abs(sv.amplitude(0b101)), 1.0, 1e-12);
}

TEST(StateVectorTest, WrongMatrixSizeThrows)
{
    StateVector sv(2);
    EXPECT_THROW(sv.applyMatrix(gates::cx(), {0}), SimulationError);
    EXPECT_THROW(sv.applyMatrix(gates::h(), {0, 1}), SimulationError);
}

TEST(StateVectorTest, NormPreservedByRandomCircuit)
{
    StateVector sv(4);
    Rng rng(11);
    for (int step = 0; step < 200; ++step) {
        const Qubit q = static_cast<Qubit>(rng.below(4));
        const Qubit r = static_cast<Qubit>((q + 1 + rng.below(3)) % 4);
        switch (rng.below(5)) {
          case 0:
            sv.applyUnitary({.kind = OpKind::H, .qubits = {q}});
            break;
          case 1:
            sv.applyUnitary({.kind = OpKind::T, .qubits = {q}});
            break;
          case 2:
            sv.applyUnitary({.kind = OpKind::CX, .qubits = {q, r}});
            break;
          case 3:
            sv.applyUnitary({.kind = OpKind::RY,
                             .qubits = {q},
                             .params = {rng.uniform() * M_PI}});
            break;
          default:
            sv.applyUnitary({.kind = OpKind::S, .qubits = {q}});
        }
    }
    EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST(StateVectorTest, MeasureCollapsesDeterministicState)
{
    StateVector sv(1);
    Rng rng(3);
    EXPECT_EQ(sv.measure(0, rng), 0);
    sv.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    EXPECT_EQ(sv.measure(0, rng), 1);
}

TEST(StateVectorTest, MeasureStatisticsOnPlus)
{
    Rng rng(17);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        StateVector sv(1);
        sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
        ones += sv.measure(0, rng);
    }
    EXPECT_NEAR(ones / double(n), 0.5, 0.02);
}

TEST(StateVectorTest, MeasureCollapsesEntangledPartner)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        StateVector sv(2);
        sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
        sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
        const int first = sv.measure(0, rng);
        const int second = sv.measure(1, rng);
        EXPECT_EQ(first, second);
    }
}

TEST(StateVectorTest, PostSelectReturnsBranchProbability)
{
    StateVector sv(1);
    sv.applyUnitary({.kind = OpKind::RY,
                     .qubits = {0},
                     .params = {2.0 * std::acos(std::sqrt(0.3))}});
    // P(0) = 0.3 by construction.
    const double p = sv.postSelect(0, 0);
    EXPECT_NEAR(p, 0.3, 1e-9);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-9);
}

TEST(StateVectorTest, PostSelectImpossibleBranchThrows)
{
    StateVector sv(1); // |0>
    EXPECT_THROW(sv.postSelect(0, 1), SimulationError);
}

TEST(StateVectorTest, MarginalProbabilities)
{
    StateVector sv(3);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 2}});
    // Marginal over {0, 2}: half 00, half 11.
    const auto marginal = sv.marginalProbabilities({0, 2});
    ASSERT_EQ(marginal.size(), 4u);
    EXPECT_NEAR(marginal[0b00], 0.5, 1e-12);
    EXPECT_NEAR(marginal[0b11], 0.5, 1e-12);
    EXPECT_NEAR(marginal[0b01], 0.0, 1e-12);
    // Marginal over just qubit 1: deterministic 0.
    const auto m1 = sv.marginalProbabilities({1});
    EXPECT_NEAR(m1[0], 1.0, 1e-12);
}

TEST(StateVectorTest, SampleMatchesDistribution)
{
    StateVector sv(2);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    Rng rng(29);
    int count00 = 0, count11 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const BasisIndex s = sv.sample(rng);
        if (s == 0b00)
            ++count00;
        else if (s == 0b11)
            ++count11;
        else
            FAIL() << "sampled impossible outcome " << s;
    }
    EXPECT_NEAR(count00 / double(n), 0.5, 0.02);
    EXPECT_NEAR(count11 / double(n), 0.5, 0.02);
}

TEST(StateVectorTest, ResetQubit)
{
    Rng rng(31);
    for (int i = 0; i < 20; ++i) {
        StateVector sv(2);
        sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
        sv.applyUnitary({.kind = OpKind::X, .qubits = {1}});
        sv.resetQubit(0, rng);
        EXPECT_NEAR(sv.probabilityOfOne(0), 0.0, 1e-12);
        EXPECT_NEAR(sv.probabilityOfOne(1), 1.0, 1e-12);
    }
}

TEST(StateVectorTest, ReducedDensityOfProductStateIsPure)
{
    StateVector sv(2);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    EXPECT_NEAR(sv.qubitPurity(0), 1.0, 1e-12);
    EXPECT_NEAR(sv.qubitPurity(1), 1.0, 1e-12);
}

TEST(StateVectorTest, ReducedDensityOfBellPairIsMixed)
{
    StateVector sv(2);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    EXPECT_NEAR(sv.qubitPurity(0), 0.5, 1e-12);
    EXPECT_NEAR(sv.qubitPurity(1), 0.5, 1e-12);
    const Matrix rho = sv.reducedQubitDensity(0);
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(rho(0, 1)), 0.0, 1e-12);
}

TEST(StateVectorTest, FidelityBetweenStates)
{
    StateVector a(1), b(1);
    EXPECT_NEAR(a.fidelityWith(b), 1.0, 1e-12);
    b.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    EXPECT_NEAR(a.fidelityWith(b), 0.0, 1e-12);
    StateVector c(2);
    EXPECT_THROW(a.fidelityWith(c), SimulationError);
}

TEST(StateVectorTest, HhIsIdentity)
{
    StateVector sv(1);
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    sv.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);
}

TEST(StateVectorTest, OutOfRangeQubitThrows)
{
    StateVector sv(2);
    Rng rng(1);
    EXPECT_THROW(sv.probabilityOfOne(2), IndexError);
    EXPECT_THROW(sv.measure(5, rng), IndexError);
    EXPECT_THROW(sv.postSelect(3, 0), IndexError);
}

} // namespace
} // namespace qra
