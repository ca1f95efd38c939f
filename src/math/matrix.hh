/**
 * @file
 * Dense complex matrix with the operations quantum simulation needs:
 * multiplication, adjoint, Kronecker product, and structural
 * predicates (unitary, Hermitian, identity).
 *
 * The matrix is row-major and dynamically sized. Gate matrices are
 * tiny (2x2 .. 8x8), density matrices go up to 2^n x 2^n for small n;
 * no BLAS dependency is warranted at these sizes.
 */

#ifndef QRA_MATH_MATRIX_HH
#define QRA_MATH_MATRIX_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "math/types.hh"

namespace qra {

/** Dense row-major complex matrix. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialised rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /**
     * Build from nested initialiser lists:
     * Matrix m{{1, 0}, {0, 1}};
     * @throws ValueError if rows have unequal lengths.
     */
    Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    /** rows x cols matrix of zeros. */
    static Matrix zeros(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** True when rows() == cols(). */
    bool isSquare() const { return rows_ == cols_; }

    /** Element access (bounds-checked in debug builds only). */
    Complex &operator()(std::size_t r, std::size_t c);
    const Complex &operator()(std::size_t r, std::size_t c) const;

    /** Raw row-major storage (size rows()*cols()). */
    const std::vector<Complex> &data() const { return data_; }
    std::vector<Complex> &data() { return data_; }

    Matrix operator+(const Matrix &rhs) const;
    Matrix operator-(const Matrix &rhs) const;
    Matrix operator*(const Matrix &rhs) const;
    Matrix operator*(Complex scalar) const;
    Matrix &operator+=(const Matrix &rhs);
    Matrix &operator-=(const Matrix &rhs);
    Matrix &operator*=(Complex scalar);

    /** Conjugate transpose. */
    Matrix adjoint() const;

    /** Transpose without conjugation. */
    Matrix transpose() const;

    /** Element-wise complex conjugate. */
    Matrix conjugate() const;

    /** Kronecker (tensor) product this (x) rhs. */
    Matrix kron(const Matrix &rhs) const;

    /** Sum of diagonal elements. @throws ValueError if not square. */
    Complex trace() const;

    /** Max |a_ij - b_ij| over all elements; matrices must be congruent. */
    double maxAbsDiff(const Matrix &rhs) const;

    /** True iff U * U^dagger == I within @p tol. */
    bool isUnitary(double tol = kTol) const;

    /**
     * True iff every off-diagonal element has magnitude <= @p tol.
     * With tol = 0.0 this is an exact structural test, which the gate
     * kernels use to route diagonal matrices to the cheap path.
     */
    bool isDiagonal(double tol = kTol) const;

    /** True iff this == I within @p tol. */
    bool isIdentity(double tol = kTol) const;

    /** True iff every element matches @p rhs within @p tol. */
    bool approxEqual(const Matrix &rhs, double tol = kTol) const;

    /**
     * True iff this == e^{i phi} * rhs for some global phase phi,
     * within @p tol. Needed when comparing decomposed gate sequences.
     */
    bool equalUpToGlobalPhase(const Matrix &rhs, double tol = 1e-8) const;

    /** Multi-line human-readable rendering (for diagnostics). */
    std::string str(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

/** Scalar * matrix convenience overload. */
Matrix operator*(Complex scalar, const Matrix &m);

} // namespace qra

#endif // QRA_MATH_MATRIX_HH
