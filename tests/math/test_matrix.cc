/** @file Tests for the dense complex Matrix type. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "math/gates.hh"
#include "math/matrix.hh"

namespace qra {
namespace {

TEST(MatrixTest, ZeroConstruction)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(m(r, c), Complex(0.0, 0.0));
}

TEST(MatrixTest, InitializerList)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m(0, 0), Complex(1.0, 0.0));
    EXPECT_EQ(m(0, 1), Complex(2.0, 0.0));
    EXPECT_EQ(m(1, 0), Complex(3.0, 0.0));
    EXPECT_EQ(m(1, 1), Complex(4.0, 0.0));
}

TEST(MatrixTest, RaggedInitializerThrows)
{
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), ValueError);
}

TEST(MatrixTest, IdentityIsIdentity)
{
    EXPECT_TRUE(Matrix::identity(4).isIdentity());
    EXPECT_FALSE(gates::x().isIdentity());
}

TEST(MatrixTest, AdditionSubtraction)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{4.0, 3.0}, {2.0, 1.0}};
    Matrix sum = a + b;
    EXPECT_EQ(sum(0, 0), Complex(5.0, 0.0));
    EXPECT_EQ(sum(1, 1), Complex(5.0, 0.0));
    Matrix diff = sum - b;
    EXPECT_TRUE(diff.approxEqual(a));
}

TEST(MatrixTest, DimensionMismatchThrows)
{
    Matrix a(2, 2);
    Matrix b(3, 3);
    EXPECT_THROW(a + b, ValueError);
    EXPECT_THROW(a - b, ValueError);
    EXPECT_THROW(a * b, ValueError);
    EXPECT_THROW(a.maxAbsDiff(b), ValueError);
}

TEST(MatrixTest, Multiplication)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{0.0, 1.0}, {1.0, 0.0}};
    Matrix prod = a * b;
    EXPECT_EQ(prod(0, 0), Complex(2.0, 0.0));
    EXPECT_EQ(prod(0, 1), Complex(1.0, 0.0));
    EXPECT_EQ(prod(1, 0), Complex(4.0, 0.0));
    EXPECT_EQ(prod(1, 1), Complex(3.0, 0.0));
}

TEST(MatrixTest, ScalarMultiplication)
{
    Matrix a{{1.0, 0.0}, {0.0, 1.0}};
    Matrix scaled = a * Complex{0.0, 2.0};
    EXPECT_EQ(scaled(0, 0), Complex(0.0, 2.0));
    Matrix scaled2 = Complex{0.0, 2.0} * a;
    EXPECT_TRUE(scaled.approxEqual(scaled2));
}

TEST(MatrixTest, AdjointConjugatesAndTransposes)
{
    Matrix m{{Complex{1.0, 1.0}, Complex{2.0, -1.0}},
             {Complex{0.0, 3.0}, Complex{4.0, 0.0}}};
    Matrix adj = m.adjoint();
    EXPECT_EQ(adj(0, 0), Complex(1.0, -1.0));
    EXPECT_EQ(adj(0, 1), Complex(0.0, -3.0));
    EXPECT_EQ(adj(1, 0), Complex(2.0, 1.0));
    EXPECT_EQ(adj(1, 1), Complex(4.0, 0.0));
}

TEST(MatrixTest, TransposeDoesNotConjugate)
{
    Matrix m{{Complex{1.0, 1.0}, Complex{2.0, 0.0}},
             {Complex{3.0, 0.0}, Complex{4.0, 0.0}}};
    Matrix t = m.transpose();
    EXPECT_EQ(t(0, 0), Complex(1.0, 1.0));
    EXPECT_EQ(t(0, 1), Complex(3.0, 0.0));
}

TEST(MatrixTest, KronProductDimensions)
{
    Matrix a(2, 2);
    Matrix b(3, 3);
    Matrix k = a.kron(b);
    EXPECT_EQ(k.rows(), 6u);
    EXPECT_EQ(k.cols(), 6u);
}

TEST(MatrixTest, KronOfPaulis)
{
    // X (x) Z has Z in the off-diagonal blocks.
    Matrix k = gates::x().kron(gates::z());
    EXPECT_EQ(k(0, 2), Complex(1.0, 0.0));
    EXPECT_EQ(k(1, 3), Complex(-1.0, 0.0));
    EXPECT_EQ(k(2, 0), Complex(1.0, 0.0));
    EXPECT_EQ(k(3, 1), Complex(-1.0, 0.0));
    EXPECT_EQ(k(0, 0), Complex(0.0, 0.0));
}

TEST(MatrixTest, KronIdentityGivesBlockDiagonal)
{
    Matrix k = Matrix::identity(2).kron(gates::h());
    // Top-left block is H, bottom-right block is H.
    EXPECT_NEAR(k(0, 0).real(), kInvSqrt2, 1e-12);
    EXPECT_NEAR(k(3, 3).real(), -kInvSqrt2, 1e-12);
    EXPECT_EQ(k(0, 2), Complex(0.0, 0.0));
}

TEST(MatrixTest, TraceOfIdentity)
{
    EXPECT_EQ(Matrix::identity(5).trace(), Complex(5.0, 0.0));
}

TEST(MatrixTest, TraceNonSquareThrows)
{
    EXPECT_THROW(Matrix(2, 3).trace(), ValueError);
}

TEST(MatrixTest, UnitarityChecks)
{
    EXPECT_TRUE(gates::h().isUnitary());
    EXPECT_TRUE(gates::x().isUnitary());
    EXPECT_TRUE(gates::cx().isUnitary());
    Matrix not_unitary{{1.0, 1.0}, {0.0, 1.0}};
    EXPECT_FALSE(not_unitary.isUnitary());
    EXPECT_FALSE(Matrix(2, 3).isUnitary());
}

TEST(MatrixTest, GlobalPhaseEquality)
{
    const Matrix h = gates::h();
    const Matrix phased = h * std::polar(1.0, 1.234);
    EXPECT_TRUE(phased.equalUpToGlobalPhase(h));
    EXPECT_FALSE(phased.approxEqual(h));
    EXPECT_FALSE(gates::x().equalUpToGlobalPhase(gates::z()));
}

TEST(MatrixTest, StrRendersSomething)
{
    const std::string s = gates::h().str();
    EXPECT_NE(s.find("0.7071"), std::string::npos);
}

} // namespace
} // namespace qra
