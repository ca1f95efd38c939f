/** @file Tests for the canonical gate matrices. */

#include <cmath>

#include <gtest/gtest.h>

#include "math/gates.hh"

namespace qra {
namespace {

TEST(GatesTest, AllFixedGatesAreUnitary)
{
    EXPECT_TRUE(gates::i1().isUnitary());
    EXPECT_TRUE(gates::x().isUnitary());
    EXPECT_TRUE(gates::y().isUnitary());
    EXPECT_TRUE(gates::z().isUnitary());
    EXPECT_TRUE(gates::h().isUnitary());
    EXPECT_TRUE(gates::s().isUnitary());
    EXPECT_TRUE(gates::sdg().isUnitary());
    EXPECT_TRUE(gates::t().isUnitary());
    EXPECT_TRUE(gates::tdg().isUnitary());
    EXPECT_TRUE(gates::sx().isUnitary());
    EXPECT_TRUE(gates::cx().isUnitary());
    EXPECT_TRUE(gates::cy().isUnitary());
    EXPECT_TRUE(gates::cz().isUnitary());
    EXPECT_TRUE(gates::swap().isUnitary());
    EXPECT_TRUE(gates::ccx().isUnitary());
}

TEST(GatesTest, ParameterizedGatesAreUnitary)
{
    for (double theta : {0.0, 0.1, M_PI / 3, M_PI, 2.5 * M_PI}) {
        EXPECT_TRUE(gates::rx(theta).isUnitary());
        EXPECT_TRUE(gates::ry(theta).isUnitary());
        EXPECT_TRUE(gates::rz(theta).isUnitary());
        EXPECT_TRUE(gates::p(theta).isUnitary());
        EXPECT_TRUE(gates::u(theta, 0.7, -1.3).isUnitary());
    }
}

TEST(GatesTest, UMatchesEulerProductAtAnyAngle)
{
    // u(theta, phi, lambda) = e^{i(phi+lambda)/2} rz(phi) ry(theta)
    // rz(lambda), including angles where sin or cos of theta/2 is
    // negative.
    const double phi = 0.7;
    const double lambda = -1.3;
    for (double theta : {-M_PI / 2, 2.5 * M_PI, 3.5 * M_PI}) {
        const Matrix euler = std::polar(1.0, (phi + lambda) / 2.0) *
                             (gates::rz(phi) * gates::ry(theta) *
                              gates::rz(lambda));
        EXPECT_TRUE(gates::u(theta, phi, lambda).approxEqual(euler,
                                                             1e-12))
            << "theta " << theta;
    }
}

TEST(GatesTest, PauliAlgebra)
{
    // X^2 = Y^2 = Z^2 = I; XY = iZ.
    EXPECT_TRUE((gates::x() * gates::x()).isIdentity());
    EXPECT_TRUE((gates::y() * gates::y()).isIdentity());
    EXPECT_TRUE((gates::z() * gates::z()).isIdentity());
    EXPECT_TRUE((gates::x() * gates::y())
                    .approxEqual(gates::z() * kI));
}

TEST(GatesTest, HadamardConjugatesXZ)
{
    // H X H = Z and H Z H = X.
    EXPECT_TRUE((gates::h() * gates::x() * gates::h())
                    .approxEqual(gates::z(), 1e-12));
    EXPECT_TRUE((gates::h() * gates::z() * gates::h())
                    .approxEqual(gates::x(), 1e-12));
}

TEST(GatesTest, HadamardLogicFunction)
{
    // Fig. 1 of the paper: H|0> = (|0>+|1>)/sqrt2, H|1> = (|0>-|1>)/sqrt2.
    const Matrix h = gates::h();
    EXPECT_NEAR(h(0, 0).real(), kInvSqrt2, 1e-12);
    EXPECT_NEAR(h(1, 0).real(), kInvSqrt2, 1e-12);
    EXPECT_NEAR(h(0, 1).real(), kInvSqrt2, 1e-12);
    EXPECT_NEAR(h(1, 1).real(), -kInvSqrt2, 1e-12);
}

TEST(GatesTest, SSquaredIsZ)
{
    EXPECT_TRUE((gates::s() * gates::s()).approxEqual(gates::z()));
    EXPECT_TRUE((gates::s() * gates::sdg()).isIdentity());
}

TEST(GatesTest, TSquaredIsS)
{
    EXPECT_TRUE((gates::t() * gates::t()).approxEqual(gates::s(), 1e-12));
    EXPECT_TRUE((gates::t() * gates::tdg()).isIdentity());
}

TEST(GatesTest, SxSquaredIsX)
{
    EXPECT_TRUE((gates::sx() * gates::sx()).approxEqual(gates::x(),
                                                        1e-12));
}

TEST(GatesTest, RotationComposition)
{
    // RX(a) RX(b) = RX(a + b).
    const Matrix lhs = gates::rx(0.4) * gates::rx(0.9);
    EXPECT_TRUE(lhs.approxEqual(gates::rx(1.3), 1e-12));
}

TEST(GatesTest, RotationsAtPi)
{
    // RX(pi) = -iX, RY(pi) = -iY, RZ(pi) = -iZ.
    EXPECT_TRUE(gates::rx(M_PI).equalUpToGlobalPhase(gates::x()));
    EXPECT_TRUE(gates::ry(M_PI).equalUpToGlobalPhase(gates::y()));
    EXPECT_TRUE(gates::rz(M_PI).equalUpToGlobalPhase(gates::z()));
}

TEST(GatesTest, UGateSpecialCases)
{
    // u(pi/2, 0, pi) = H; u(pi, 0, pi) = X; u(0, 0, l) = P(l) phase.
    EXPECT_TRUE(gates::u(M_PI / 2, 0.0, M_PI)
                    .approxEqual(gates::h(), 1e-12));
    EXPECT_TRUE(gates::u(M_PI, 0.0, M_PI)
                    .approxEqual(gates::x(), 1e-12));
    EXPECT_TRUE(gates::u(0.0, 0.0, 1.1)
                    .equalUpToGlobalPhase(gates::p(1.1), 1e-12));
}

TEST(GatesTest, CnotLogicFunction)
{
    // Fig. 1: CNOT maps |psi, delta> -> |psi, psi XOR delta>.
    // Our convention: control = matrix bit 0, target = bit 1.
    const Matrix cx = gates::cx();
    // |c=0, t=0> (index 0) -> index 0.
    EXPECT_EQ(cx(0, 0), Complex(1.0, 0.0));
    // |c=1, t=0> (index 1) -> |c=1, t=1> (index 3).
    EXPECT_EQ(cx(3, 1), Complex(1.0, 0.0));
    // |c=0, t=1> (index 2) -> index 2.
    EXPECT_EQ(cx(2, 2), Complex(1.0, 0.0));
    // |c=1, t=1> (index 3) -> |c=1, t=0> (index 1).
    EXPECT_EQ(cx(1, 3), Complex(1.0, 0.0));
}

TEST(GatesTest, CnotSelfInverse)
{
    EXPECT_TRUE((gates::cx() * gates::cx()).isIdentity());
    EXPECT_TRUE((gates::swap() * gates::swap()).isIdentity());
    EXPECT_TRUE((gates::ccx() * gates::ccx()).isIdentity());
}

TEST(GatesTest, CzIsDiagonalSymmetric)
{
    const Matrix cz = gates::cz();
    EXPECT_EQ(cz(3, 3), Complex(-1.0, 0.0));
    EXPECT_EQ(cz(0, 0), Complex(1.0, 0.0));
    EXPECT_TRUE(cz.approxEqual(cz.transpose()));
}

TEST(GatesTest, SwapExchangesBasisStates)
{
    const Matrix sw = gates::swap();
    EXPECT_EQ(sw(2, 1), Complex(1.0, 0.0));
    EXPECT_EQ(sw(1, 2), Complex(1.0, 0.0));
    EXPECT_EQ(sw(0, 0), Complex(1.0, 0.0));
    EXPECT_EQ(sw(3, 3), Complex(1.0, 0.0));
}

TEST(GatesTest, ToffoliFlipsOnlyWhenBothControlsSet)
{
    const Matrix ccx = gates::ccx();
    // Controls are bits 0 and 1; target bit 2.
    // |011> (3) <-> |111> (7).
    EXPECT_EQ(ccx(7, 3), Complex(1.0, 0.0));
    EXPECT_EQ(ccx(3, 7), Complex(1.0, 0.0));
    for (int i : {0, 1, 2, 4, 5, 6})
        EXPECT_EQ(ccx(i, i), Complex(1.0, 0.0));
}

} // namespace
} // namespace qra
