/**
 * @file
 * Shared helpers for the QRA test suite.
 */

#ifndef QRA_TESTS_TESTUTIL_HH
#define QRA_TESTS_TESTUTIL_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
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
    Operation op{.kind = OpKind::U, .qubits = {0}, .clbit = std::nullopt,
                 .params = {theta, phi, 0.0}};
    sv.applyUnitary(op);
    return sv;
}

/** A golden value as it is written in a table, e.g. "0x1fULL". */
inline std::string
goldenLiteral(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value << "ULL";
    return os.str();
}

inline std::string
goldenLiteral(const std::pair<std::uint64_t, std::uint64_t> &value)
{
    return "{" + goldenLiteral(value.first) + ", " +
           goldenLiteral(value.second) + "}";
}

/**
 * Check every produced (name, value) against a golden table. Fails on
 * a produced name the table has no row for (printing the row to pin),
 * on a value that differs from its row, and on a row that no produced
 * name reads, so a table cannot keep rows the test no longer checks.
 */
template <typename Value>
void
expectGoldenTable(const std::map<std::string, Value> &golden,
                  const std::vector<std::pair<std::string, Value>> &got)
{
    std::set<std::string> read;
    for (const auto &[name, value] : got) {
        const auto it = golden.find(name);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden row for {\"" << name << "\", "
                          << goldenLiteral(value) << "}";
            continue;
        }
        read.insert(name);
        EXPECT_EQ(value, it->second)
            << name << ": got " << goldenLiteral(value);
    }
    for (const auto &[name, value] : golden)
        if (!read.contains(name))
            ADD_FAILURE() << "golden row \"" << name
                          << "\" is never read";
}

} // namespace test
} // namespace qra

#endif // QRA_TESTS_TESTUTIL_HH
