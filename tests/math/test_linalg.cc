/** @file Tests for vector/density-matrix linear algebra helpers. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "math/gates.hh"
#include "math/linalg.hh"

namespace qra {
namespace {

TEST(LinalgTest, StateFidelityMismatchThrows)
{
    EXPECT_THROW(
        linalg::stateFidelity({1.0}, {1.0, 0.0}), ValueError);
}

TEST(LinalgTest, Normalize)
{
    std::vector<Complex> v{3.0, 4.0};
    linalg::normalize(v);
    EXPECT_NEAR(v[0].real(), 0.6, 1e-12);
    EXPECT_NEAR(v[1].real(), 0.8, 1e-12);
}

TEST(LinalgTest, NormalizeZeroThrows)
{
    std::vector<Complex> v{0.0, 0.0};
    EXPECT_THROW(linalg::normalize(v), ValueError);
}

TEST(LinalgTest, StateFidelityExtremes)
{
    const std::vector<Complex> zero{1.0, 0.0};
    const std::vector<Complex> one{0.0, 1.0};
    const std::vector<Complex> plus{kInvSqrt2, kInvSqrt2};
    EXPECT_NEAR(linalg::stateFidelity(zero, zero), 1.0, 1e-12);
    EXPECT_NEAR(linalg::stateFidelity(zero, one), 0.0, 1e-12);
    EXPECT_NEAR(linalg::stateFidelity(zero, plus), 0.5, 1e-12);
}

TEST(LinalgTest, OuterProducesPureDensity)
{
    const std::vector<Complex> plus{kInvSqrt2, kInvSqrt2};
    const Matrix rho = linalg::outer(plus);
    EXPECT_NEAR(rho.trace().real(), 1.0, 1e-12);
    EXPECT_NEAR(linalg::purity(rho), 1.0, 1e-12);
    EXPECT_NEAR(rho(0, 1).real(), 0.5, 1e-12);
}

TEST(LinalgTest, MixedStateFidelity)
{
    // Maximally mixed single qubit vs |0>: fidelity 1/2.
    Matrix rho = Matrix::identity(2) * Complex{0.5, 0.0};
    EXPECT_NEAR(linalg::mixedStateFidelity(rho, {1.0, 0.0}), 0.5,
                1e-12);
}

TEST(LinalgTest, PurityOfMixedState)
{
    Matrix rho = Matrix::identity(2) * Complex{0.5, 0.0};
    EXPECT_NEAR(linalg::purity(rho), 0.5, 1e-12);
}

TEST(LinalgTest, PartialTraceOfProductState)
{
    // |0> (x) |+>: tracing out either qubit leaves a pure state.
    // Basis ordering: bit 0 = first qubit.
    std::vector<Complex> psi(4, Complex{0.0, 0.0});
    // qubit0 = |0>, qubit1 = |+>: amplitudes at indices 0 (00) and
    // 2 (10) are 1/sqrt2.
    psi[0] = kInvSqrt2;
    psi[2] = kInvSqrt2;
    const Matrix rho = linalg::outer(psi);

    const Matrix rho0 = linalg::partialTrace(rho, 2, {1});
    EXPECT_NEAR(rho0(0, 0).real(), 1.0, 1e-12); // qubit0 is |0>

    const Matrix rho1 = linalg::partialTrace(rho, 2, {0});
    EXPECT_NEAR(rho1(0, 1).real(), 0.5, 1e-12); // qubit1 is |+>
    EXPECT_NEAR(linalg::purity(rho1), 1.0, 1e-12);
}

TEST(LinalgTest, PartialTraceOfBellStateIsMixed)
{
    std::vector<Complex> bell(4, Complex{0.0, 0.0});
    bell[0] = kInvSqrt2;
    bell[3] = kInvSqrt2;
    const Matrix rho = linalg::outer(bell);

    const Matrix reduced = linalg::partialTrace(rho, 2, {1});
    EXPECT_NEAR(reduced(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(reduced(1, 1).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(reduced(0, 1)), 0.0, 1e-12);
    EXPECT_NEAR(linalg::purity(reduced), 0.5, 1e-12);
}

TEST(LinalgTest, PartialTracePreservesTrace)
{
    // Random-ish 3-qubit pure state.
    std::vector<Complex> psi(8);
    for (int i = 0; i < 8; ++i)
        psi[i] = Complex{std::cos(0.3 * i + 0.1),
                         std::sin(0.7 * i - 0.2)};
    linalg::normalize(psi);
    const Matrix rho = linalg::outer(psi);

    for (std::size_t q = 0; q < 3; ++q) {
        const Matrix reduced = linalg::partialTrace(rho, 3, {q});
        EXPECT_NEAR(reduced.trace().real(), 1.0, 1e-10);
        EXPECT_EQ(reduced.rows(), 4u);
    }

    const Matrix single = linalg::partialTrace(rho, 3, {0, 2});
    EXPECT_NEAR(single.trace().real(), 1.0, 1e-10);
    EXPECT_EQ(single.rows(), 2u);
}

TEST(LinalgTest, PartialTraceValidation)
{
    const Matrix rho = Matrix::identity(4) * Complex{0.25, 0.0};
    EXPECT_THROW(linalg::partialTrace(rho, 2, {5}), ValueError);
    EXPECT_THROW(linalg::partialTrace(rho, 2, {0, 0}), ValueError);
    EXPECT_THROW(linalg::partialTrace(rho, 3, {0}), ValueError);
}

} // namespace
} // namespace qra
