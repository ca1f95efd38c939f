/**
 * @file
 * Free-standing linear-algebra helpers on amplitude vectors and
 * density matrices: normalisation, fidelities, purity.
 */

#ifndef QRA_MATH_LINALG_HH
#define QRA_MATH_LINALG_HH

#include <vector>

#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {
namespace linalg {

/** Scale @p v in place so its l2 norm becomes 1. */
void normalize(std::vector<Complex> &v);

/** |<a|b>|^2: fidelity between two pure states. */
double stateFidelity(const std::vector<Complex> &a,
                     const std::vector<Complex> &b);

/** <psi| rho |psi>: fidelity of a mixed state against a pure target. */
double mixedStateFidelity(const Matrix &rho,
                          const std::vector<Complex> &psi);

/** Tr(rho^2): purity of a density matrix. */
double purity(const Matrix &rho);

/** |psi><psi| outer product. */
Matrix outer(const std::vector<Complex> &psi);

/**
 * Partial trace of an n-qubit density matrix over @p traced_qubits
 * (little-endian qubit indexing, bit i of the basis index = qubit i).
 *
 * @param rho 2^n x 2^n density matrix.
 * @param num_qubits n.
 * @param traced_qubits Qubits to trace out (each < n, no duplicates).
 * @return Density matrix over the remaining qubits, which keep their
 *         relative order.
 */
Matrix partialTrace(const Matrix &rho, std::size_t num_qubits,
                    const std::vector<std::size_t> &traced_qubits);

} // namespace linalg
} // namespace qra

#endif // QRA_MATH_LINALG_HH
