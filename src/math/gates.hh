/**
 * @file
 * Canonical unitary matrices of the QRA gate set.
 *
 * All two-qubit matrices use the library's little-endian ordering:
 * basis index bit 0 is the *first* qubit argument of the gate. For
 * CX(control, target) the matrix acts on the space
 * |target, control> = |q1 q0> with control = bit 0.
 */

#ifndef QRA_MATH_GATES_HH
#define QRA_MATH_GATES_HH

#include "math/matrix.hh"

namespace qra {
namespace gates {

/** 2x2 identity. */
Matrix i1();
/** Pauli-X. */
Matrix x();
/** Pauli-Y. */
Matrix y();
/** Pauli-Z. */
Matrix z();
/** Hadamard. */
Matrix h();
/** Phase gate S = diag(1, i). */
Matrix s();
/** S-dagger. */
Matrix sdg();
/** T = diag(1, e^{i pi/4}). */
Matrix t();
/** T-dagger. */
Matrix tdg();
/** Square root of X. */
Matrix sx();

/** Rotation about X by @p theta. */
Matrix rx(double theta);
/** Rotation about Y by @p theta. */
Matrix ry(double theta);
/** Rotation about Z by @p theta (phase-symmetric convention). */
Matrix rz(double theta);
/** Phase gate diag(1, e^{i lambda}). */
Matrix p(double lambda);
/** Generic single-qubit unitary U(theta, phi, lambda), OpenQASM u3. */
Matrix u(double theta, double phi, double lambda);

/** CNOT with control = qubit argument 0, target = qubit argument 1. */
Matrix cx();
/** Controlled-Y. */
Matrix cy();
/** Controlled-Z (symmetric). */
Matrix cz();
/** SWAP. */
Matrix swap();
/** Toffoli (controls = args 0,1; target = arg 2). */
Matrix ccx();

} // namespace gates
} // namespace qra

#endif // QRA_MATH_GATES_HH
