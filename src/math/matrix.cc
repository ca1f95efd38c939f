#include "math/matrix.hh"

#include <cmath>
#include <sstream>

#include "common/error.hh"

namespace qra {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, Complex{0.0, 0.0})
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        if (row.size() != cols_)
            QRA_FATAL("matrix initialiser rows have unequal lengths");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::zeros(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols);
}

Complex &
Matrix::operator()(std::size_t r, std::size_t c)
{
    return data_[r * cols_ + c];
}

const Complex &
Matrix::operator()(std::size_t r, std::size_t c) const
{
    return data_[r * cols_ + c];
}

Matrix
Matrix::operator+(const Matrix &rhs) const
{
    Matrix out(*this);
    out += rhs;
    return out;
}

Matrix
Matrix::operator-(const Matrix &rhs) const
{
    Matrix out(*this);
    out -= rhs;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &rhs)
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        QRA_FATAL("matrix addition dimension mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += rhs.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &rhs)
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        QRA_FATAL("matrix subtraction dimension mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= rhs.data_[i];
    return *this;
}

Matrix
Matrix::operator*(const Matrix &rhs) const
{
    if (cols_ != rhs.rows_)
        QRA_FATAL("matrix multiplication dimension mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const Complex aik = (*this)(i, k);
            if (aik == Complex{0.0, 0.0})
                continue;
            for (std::size_t j = 0; j < rhs.cols_; ++j)
                out(i, j) += aik * rhs(k, j);
        }
    }
    return out;
}

Matrix
Matrix::operator*(Complex scalar) const
{
    Matrix out(*this);
    out *= scalar;
    return out;
}

Matrix &
Matrix::operator*=(Complex scalar)
{
    for (auto &v : data_)
        v *= scalar;
    return *this;
}

Matrix
operator*(Complex scalar, const Matrix &m)
{
    return m * scalar;
}

Matrix
Matrix::adjoint() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = std::conj((*this)(r, c));
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

Matrix
Matrix::conjugate() const
{
    Matrix out(*this);
    for (auto &v : out.data_)
        v = std::conj(v);
    return out;
}

Matrix
Matrix::kron(const Matrix &rhs) const
{
    Matrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            const Complex a = (*this)(r, c);
            if (a == Complex{0.0, 0.0})
                continue;
            for (std::size_t rr = 0; rr < rhs.rows_; ++rr)
                for (std::size_t cc = 0; cc < rhs.cols_; ++cc)
                    out(r * rhs.rows_ + rr, c * rhs.cols_ + cc) =
                        a * rhs(rr, cc);
        }
    }
    return out;
}

Complex
Matrix::trace() const
{
    if (!isSquare())
        QRA_FATAL("trace of a non-square matrix");
    Complex t{0.0, 0.0};
    for (std::size_t i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

double
Matrix::maxAbsDiff(const Matrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        QRA_FATAL("maxAbsDiff dimension mismatch");
    double max_diff = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        max_diff = std::max(max_diff, std::abs(data_[i] - rhs.data_[i]));
    return max_diff;
}

bool
Matrix::isUnitary(double tol) const
{
    if (!isSquare())
        return false;
    return ((*this) * adjoint()).isIdentity(tol);
}

bool
Matrix::isDiagonal(double tol) const
{
    if (!isSquare())
        return false;
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            if (r != c && std::abs((*this)(r, c)) > tol)
                return false;
    return true;
}

bool
Matrix::isIdentity(double tol) const
{
    if (!isSquare())
        return false;
    return maxAbsDiff(identity(rows_)) <= tol;
}

bool
Matrix::approxEqual(const Matrix &rhs, double tol) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        return false;
    return maxAbsDiff(rhs) <= tol;
}

bool
Matrix::equalUpToGlobalPhase(const Matrix &rhs, double tol) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        return false;

    // Find the largest-magnitude element of rhs to anchor the phase.
    std::size_t anchor = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const double mag = std::abs(rhs.data_[i]);
        if (mag > best) {
            best = mag;
            anchor = i;
        }
    }
    if (best <= tol) {
        // rhs is (near) zero: so must this be, in Frobenius norm.
        double sum = 0.0;
        for (const Complex &v : data_)
            sum += std::norm(v);
        return std::sqrt(sum) <= tol;
    }
    if (std::abs(data_[anchor]) <= tol)
        return false;

    const Complex phase = data_[anchor] / rhs.data_[anchor];
    Matrix scaled = rhs * phase;
    return maxAbsDiff(scaled) <= tol;
}

std::string
Matrix::str(int precision) const
{
    std::ostringstream os;
    os.precision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        os << "[ ";
        for (std::size_t c = 0; c < cols_; ++c) {
            const Complex v = (*this)(r, c);
            os << v.real();
            if (v.imag() >= 0)
                os << "+" << v.imag() << "i ";
            else
                os << v.imag() << "i ";
        }
        os << "]\n";
    }
    return os.str();
}

} // namespace qra
