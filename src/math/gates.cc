#include "math/gates.hh"

#include <cmath>

namespace qra {
namespace gates {

namespace {
const Complex k0{0.0, 0.0};
const Complex k1{1.0, 0.0};
} // namespace

Matrix
i1()
{
    return Matrix::identity(2);
}

Matrix
x()
{
    return Matrix{{k0, k1}, {k1, k0}};
}

Matrix
y()
{
    return Matrix{{k0, -kI}, {kI, k0}};
}

Matrix
z()
{
    return Matrix{{k1, k0}, {k0, -k1}};
}

Matrix
h()
{
    const Complex c{kInvSqrt2, 0.0};
    return Matrix{{c, c}, {c, -c}};
}

Matrix
s()
{
    return Matrix{{k1, k0}, {k0, kI}};
}

Matrix
sdg()
{
    return Matrix{{k1, k0}, {k0, -kI}};
}

Matrix
t()
{
    return Matrix{{k1, k0}, {k0, std::polar(1.0, M_PI / 4.0)}};
}

Matrix
tdg()
{
    return Matrix{{k1, k0}, {k0, std::polar(1.0, -M_PI / 4.0)}};
}

Matrix
sx()
{
    const Complex a{0.5, 0.5};
    const Complex b{0.5, -0.5};
    return Matrix{{a, b}, {b, a}};
}

Matrix
rx(double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s_ = std::sin(theta / 2.0);
    return Matrix{{Complex{c, 0.0}, Complex{0.0, -s_}},
                  {Complex{0.0, -s_}, Complex{c, 0.0}}};
}

Matrix
ry(double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s_ = std::sin(theta / 2.0);
    return Matrix{{Complex{c, 0.0}, Complex{-s_, 0.0}},
                  {Complex{s_, 0.0}, Complex{c, 0.0}}};
}

Matrix
rz(double theta)
{
    return Matrix{{std::polar(1.0, -theta / 2.0), k0},
                  {k0, std::polar(1.0, theta / 2.0)}};
}

Matrix
p(double lambda)
{
    return Matrix{{k1, k0}, {k0, std::polar(1.0, lambda)}};
}

Matrix
u(double theta, double phi, double lambda)
{
    const double c = std::cos(theta / 2.0);
    const double s_ = std::sin(theta / 2.0);
    return Matrix{
        {Complex{c, 0.0}, -s_ * std::polar(1.0, lambda)},
        {s_ * std::polar(1.0, phi), c * std::polar(1.0, phi + lambda)}};
}

// Two-qubit matrices use local index (bit0 = first gate argument).
// For cx(), argument 0 is the control, argument 1 the target, so the
// basis order is |t c> with c the least-significant bit.

Matrix
cx()
{
    return Matrix{{k1, k0, k0, k0},
                  {k0, k0, k0, k1},
                  {k0, k0, k1, k0},
                  {k0, k1, k0, k0}};
}

Matrix
cy()
{
    return Matrix{{k1, k0, k0, k0},
                  {k0, k0, k0, -kI},
                  {k0, k0, k1, k0},
                  {k0, kI, k0, k0}};
}

Matrix
cz()
{
    Matrix m = Matrix::identity(4);
    m(3, 3) = -k1;
    return m;
}

Matrix
swap()
{
    return Matrix{{k1, k0, k0, k0},
                  {k0, k0, k1, k0},
                  {k0, k1, k0, k0},
                  {k0, k0, k0, k1}};
}

Matrix
ccx()
{
    Matrix m = Matrix::identity(8);
    // Flip target (bit 2) when both controls (bits 0, 1) are set:
    // index 3 (011) <-> index 7 (111).
    m(3, 3) = k0;
    m(7, 7) = k0;
    m(3, 7) = k1;
    m(7, 3) = k1;
    return m;
}

} // namespace gates
} // namespace qra
