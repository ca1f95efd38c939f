/**
 * @file
 * Cache-blocked, branch-free gate kernels over a 2^n amplitude array.
 *
 * Replaces the old single-function sim/kernel.hh. Each specialization
 * iterates the *compact* index space of its gate class (half-space for
 * one-qubit gates, quarter-space for controlled gates, ...) with the
 * target/control bits re-inserted arithmetically, so the inner loops
 * have no data-dependent branches and auto-vectorize. Every kernel
 * splits its index range across the scoped thread pool (see
 * parallel.hh) above the grain size; splits touch disjoint elements,
 * so results are bit-identical at any lane count.
 *
 * Qubit i is bit i of the basis index (little-endian), matching
 * StateVector. Kernels do no bounds checking — callers validate
 * operands (StateVector::applyKernel throws IndexError).
 */

#ifndef QRA_SIM_KERNELS_KERNELS_HH
#define QRA_SIM_KERNELS_KERNELS_HH

#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {
namespace kernels {

/**
 * Re-insert zero bits at the positions in @p sorted_bits (ascending
 * single-bit masks) into compact index @p h.
 *
 * Contract (silent garbage on violation in release builds): each
 * entry must be a nonzero single-bit mask, and the array must be
 * strictly ascending. `sorted_bits[j] - 1` computes the below-the-bit
 * mask; a zero entry wraps to ~0 and hoists the *entire* index left,
 * a multi-bit entry produces a low mask covering unrelated bits, and
 * an out-of-order array double-inserts below an already-inserted
 * position. Debug builds assert all three.
 */
inline std::uint64_t
expandIndex(std::uint64_t h, const std::uint64_t *sorted_bits,
            std::size_t k)
{
#ifndef NDEBUG
    for (std::size_t j = 0; j < k; ++j) {
        QRA_ASSERT(sorted_bits[j] != 0 &&
                       (sorted_bits[j] & (sorted_bits[j] - 1)) == 0,
                   "expandIndex bit masks must be nonzero single bits");
        QRA_ASSERT(j == 0 || sorted_bits[j - 1] < sorted_bits[j],
                   "expandIndex bit masks must be strictly ascending");
    }
#endif
    for (std::size_t j = 0; j < k; ++j) {
        const std::uint64_t low = sorted_bits[j] - 1;
        h = ((h & ~low) << 1) | (h & low);
    }
    return h;
}

/**
 * General one-qubit unitary [[m00 m01] [m10 m11]] on qubit q.
 *
 * Pair kernels walk the state linearly or in cache-budget tiles, as
 * forEachCompact decides per call from the widest operand's stride
 * (see traversal.hh). Both walks are bit-identical; so are the SIMD
 * dispatch tiers (simd/dispatch.hh) these kernels route through
 * before falling back to the scalar oracle loops below.
 */
void applyGeneral1q(Complex *amps, std::uint64_t n, Qubit q, Complex m00,
                    Complex m01, Complex m10, Complex m11);

/** Diagonal one-qubit gate diag(d0, d1) on qubit q (Z, S, T, RZ, P). */
void applyDiagonal1q(Complex *amps, std::uint64_t n, Qubit q, Complex d0,
                     Complex d1);

/**
 * Anti-diagonal one-qubit gate [[0 a01] [a10 0]] on qubit q
 * (X, Y, phased bit flips).
 */
void applyAntiDiagonal1q(Complex *amps, std::uint64_t n, Qubit q,
                         Complex a01, Complex a10);

/** Pauli-X on qubit q (pure amplitude permutation, no arithmetic). */
void applyX(Complex *amps, std::uint64_t n, Qubit q);

/** Controlled-X: flip @p target where @p control is 1. */
void applyCX(Complex *amps, std::uint64_t n, Qubit control,
             Qubit target);

/** Doubly-controlled X (Toffoli). */
void applyCCX(Complex *amps, std::uint64_t n, Qubit control0,
              Qubit control1, Qubit target);

/** Swap qubits q0 and q1. */
void applySwap(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1);

/**
 * Multiply amplitudes whose index has *all* bits of @p mask set by
 * @p phase (Z for a 1-bit mask, CZ for 2 bits, CC...Z generally).
 */
void applyPhaseOnMask(Complex *amps, std::uint64_t n, std::uint64_t mask,
                      Complex phase);

/**
 * Controlled one-qubit unitary: apply [[m00 m01] [m10 m11]] to
 * @p target on the subspace where @p control is 1 (CY, CRZ, ...).
 */
void applyControlled1q(Complex *amps, std::uint64_t n, Qubit control,
                       Qubit target, Complex m00, Complex m01,
                       Complex m10, Complex m11);

/**
 * General two-qubit unitary; @p u is 4x4 with matrix bit 0 = q0,
 * bit 1 = q1.
 */
void applyGeneral2q(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1,
                    const Matrix &u);

/**
 * Generic k-qubit dense unitary; matrix bit j corresponds to
 * qubits[j]. The reference path every specialization must match.
 */
void applyGenericK(Complex *amps, std::uint64_t n, const Matrix &u,
                   const std::vector<Qubit> &qubits);

/**
 * Dispatching dense-matrix application (drop-in for the old
 * kernel::applyMatrix): picks the 1q/2q/k-qubit kernel by operand
 * count. Used by the density-matrix backend on vec(rho) and by
 * trajectory Kraus sampling on raw amplitude copies.
 */
void applyMatrix(std::vector<Complex> &amps, const Matrix &u,
                 const std::vector<Qubit> &qubits);

// ---- parallel measurement/sampling reductions -----------------------
//
// Every reduction walks fixed kReduceBlock blocks and accumulates
// each block into a fixed 8-double lane array (element h adds re^2
// to lane 2*(h&3) and im^2 to lane 2*(h&3)+1), folding the lanes
// left to right per block and the block partials in block order.
// The SIMD tiers (simd/dispatch.hh) fill the same lane slots with
// vector accumulators, so every reduction is bit-identical across
// tiers, thread counts, and lane counts — the scalar loops below are
// the memcmp oracle, exactly like the gate kernels.

/**
 * Sum of |amps[i]|^2 over indices with (i & mask) == match, reduced
 * in fixed blocks of the *compact* index space (mask bits stripped).
 * probabilityOfOne is mask = match = 1 << q; the total norm is
 * mask = match = 0. @p match must be a subset of @p mask.
 */
double normSquaredOnMask(const Complex *amps, std::uint64_t n,
                         std::uint64_t mask, std::uint64_t match);

/**
 * Collapse after measuring @p q = @p outcome: scale surviving
 * amplitudes by @p scale and zero the rest.
 */
void collapseQubit(Complex *amps, std::uint64_t n, Qubit q, int outcome,
                   double scale);

/**
 * probs[i] = |amps[i]|^2 (parallel elementwise; each entry is the
 * scalar re*re + im*im on every tier and lane count).
 */
void computeProbabilities(const Complex *amps, std::uint64_t n,
                          double *probs);

/**
 * Marginal distribution over @p qubits: entry b is the probability
 * that reading qubits[j] gives bit j of b.
 *
 * Replaces the serial O(2^n) scatter with a blocked one: each fixed
 * kReduceBlock-sized block of the amplitude array scatters into its
 * own partial histogram (blocks split across the scoped lanes), and
 * the partials are merged in block order — so the result is
 * bit-identical at any lane count, and identical to the serial scan
 * whenever the state fits in one block. Falls back to the serial
 * scan when the partial histograms would not fit in a bounded
 * scratch budget (very wide marginals).
 */
std::vector<double> marginalProbabilities(
    const Complex *amps, std::uint64_t n,
    const std::vector<Qubit> &qubits);

/** Reduced-density sums of one qubit (see reduceQubitDensity). */
struct QubitDensity
{
    double r00 = 0.0;       ///< sum |a0|^2
    double r11 = 0.0;       ///< sum |a1|^2
    Complex c01{0.0, 0.0};  ///< sum conj(a0) * a1
};

/**
 * The 2x2 reduced density of qubit @p q, rho_q = [[r00 conj(c01)]
 * [c01 r11]], summed over the amplitude pairs (a0, a1) = (amps[i],
 * amps[i | 1 << q]) in one read-only pass. Every Born weight of a
 * one-qubit Kraus operator follows from it: ||K psi||^2 =
 * tr(K^dagger K rho_q). Reduced over fixed kReduceBlock blocks of
 * the pair space whose partials are added in block order (the
 * deterministicSum rule), so the result is bit-identical at any
 * lane count. Scalar only: no SIMD tier.
 */
QubitDensity reduceQubitDensity(const Complex *amps, std::uint64_t n,
                                Qubit q);

} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_KERNELS_HH
