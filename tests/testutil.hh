/**
 * @file
 * Shared helpers for the QRA test suite.
 */

#ifndef QRA_TESTS_TESTUTIL_HH
#define QRA_TESTS_TESTUTIL_HH

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "math/types.hh"
#include "sim/state_vector.hh"
#include "sim/statevector_simulator.hh"

namespace qra {
namespace test {

/** EXPECT two complex numbers equal within tol. */
inline void
expectComplexNear(const Complex &a, const Complex &b, double tol = 1e-9)
{
    EXPECT_NEAR(a.real(), b.real(), tol);
    EXPECT_NEAR(a.imag(), b.imag(), tol);
}

/** EXPECT two amplitude vectors equal within tol (no phase slack). */
inline void
expectAmplitudesNear(const std::vector<Complex> &a,
                     const std::vector<Complex> &b, double tol = 1e-9)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].real(), b[i].real(), tol)
            << "amplitude " << i << " (real)";
        EXPECT_NEAR(a[i].imag(), b[i].imag(), tol)
            << "amplitude " << i << " (imag)";
    }
}

/** EXPECT |<a|b>|^2 ~= 1 (equality up to global phase). */
inline void
expectSameState(const StateVector &a, const StateVector &b,
                double tol = 1e-9)
{
    EXPECT_NEAR(a.fidelityWith(b), 1.0, tol);
}

/**
 * Full unitary matrix of a (measure-free) circuit, built column by
 * column through the simulator. Exponential; use on small circuits.
 */
inline Matrix
circuitUnitary(const Circuit &circuit)
{
    const std::size_t dim = std::size_t{1} << circuit.numQubits();
    Matrix u(dim, dim);
    for (std::size_t col = 0; col < dim; ++col) {
        std::vector<Complex> basis(dim, Complex{0.0, 0.0});
        basis[col] = 1.0;
        StateVector sv = StateVector::fromAmplitudes(std::move(basis));
        for (const Operation &op : circuit.ops()) {
            if (op.kind == OpKind::Barrier)
                continue;
            sv.applyUnitary(op);
        }
        for (std::size_t row = 0; row < dim; ++row)
            u(row, col) = sv.amplitude(row);
    }
    return u;
}

/** EXPECT two circuits implement the same unitary (global phase ok). */
inline void
expectUnitaryEquivalent(const Circuit &a, const Circuit &b,
                        double tol = 1e-8)
{
    EXPECT_TRUE(circuitUnitary(a).equalUpToGlobalPhase(
        circuitUnitary(b), tol))
        << "circuits are not unitarily equivalent:\n"
        << a.draw() << "\n" << b.draw();
}

/** Prepare a single-qubit pure state a|0> + b|1> on wire 0 of n. */
inline StateVector
makeSingleQubitState(double theta, double phi, std::size_t num_qubits = 1)
{
    StateVector sv(num_qubits);
    Operation op{.kind = OpKind::U, .qubits = {0},
                 .params = {theta, phi, 0.0}, .clbit = std::nullopt};
    sv.applyUnitary(op);
    return sv;
}

} // namespace test
} // namespace qra

#endif // QRA_TESTS_TESTUTIL_HH
