/**
 * @file
 * n-qubit density matrix with unitary evolution, Kraus channels, and
 * computational-basis measurement primitives.
 *
 * The representation is a dense row-major 2^n x 2^n matrix, which is
 * also a 2n-qubit state vector vec(rho) with index (r << n) | c: qubit
 * q + n is bit q of the row index, qubit q bit q of the column index.
 * Every operation runs in place on that vector with the state-vector
 * kernels: a unitary U on Q is U on Q + n then conj(U) on Q, and a
 * channel is one superoperator on (Q, Q + n) (see
 * kernels::superoperator and kernels::DensityPlan). Practical up to
 * ~10 qubits; kMaxQubits is the hard cap.
 */

#ifndef QRA_SIM_DENSITY_MATRIX_HH
#define QRA_SIM_DENSITY_MATRIX_HH

#include <vector>

#include "circuit/gate.hh"
#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {

class KrausChannel;

namespace kernels {
struct PlanEntry;
} // namespace kernels

/** Mixed quantum state over a register of qubits. */
class DensityMatrix
{
  public:
    /**
     * Largest register: 2^12 x 2^12 complex doubles are 256 MiB, and
     * the density backend advertises exactly this cap.
     */
    static constexpr std::size_t kMaxQubits = 12;

    /** Initialise to the pure state |0...0><0...0|. */
    explicit DensityMatrix(std::size_t num_qubits);

    /** Initialise from a pure state's amplitudes. */
    static DensityMatrix fromPureState(const std::vector<Complex> &amps);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dim() const { return rho_.rows(); }

    const Matrix &matrix() const { return rho_; }

    /** rho <- U rho U^dagger with U acting on @p qubits. */
    void applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits);

    /** Apply one unitary circuit operation. */
    void applyUnitary(const Operation &op);

    /** rho <- sum_k K_k rho K_k^dagger over @p qubits. */
    void applyKraus(const KrausChannel &channel,
                    const std::vector<Qubit> &qubits);

    /**
     * Apply one unitary-kind entry of a kernels::DensityPlan to
     * vec(rho), the 2n-qubit vector view (see file comment).
     * @throws IndexError if an operand is outside the 2n qubits.
     */
    void applyKernel(const kernels::PlanEntry &entry);

    /** Non-destructive P(qubit q == 1). */
    double probabilityOfOne(Qubit q) const;

    /**
     * Destroy coherence between the |0> and |1> subspaces of @p q
     * (the back-action of an unread computational-basis measurement).
     */
    void dephase(Qubit q);

    /**
     * Tr(P rho P) for the projector P onto @p q == @p outcome: the
     * probability of that outcome times the trace of rho.
     */
    double outcomeWeight(Qubit q, int outcome) const;

    /**
     * rho <- scale * P rho P (P as in outcomeWeight()). Without a
     * scale the trace drops to the outcome's weight: a record branch.
     */
    void project(Qubit q, int outcome, double scale = 1.0);

    /** rho <- rho + other (the two must have one register size). */
    DensityMatrix &operator+=(const DensityMatrix &other);

    /** Reset channel on one qubit: rho -> |0><0| (x) tr_q contents. */
    void resetQubit(Qubit q);

    /** Diagonal of rho: probability of each basis state. */
    std::vector<double> probabilities() const;

    /** Tr(rho^2). */
    double purity() const;

    /** <psi| rho |psi>. */
    double fidelityWithPure(const std::vector<Complex> &psi) const;

    /** 2x2 reduced state of one qubit. */
    Matrix reducedQubitDensity(Qubit q) const;

    /** Tr(rho); should be 1 up to numerical error. */
    double trace() const;

  private:
    void checkQubit(Qubit q) const;

    /**
     * Apply superoperator @p s (kernels::superoperator layout) to
     * vec(rho) on (qubits, qubits + n).
     */
    void applySuperoperator(const Matrix &s,
                            const std::vector<Qubit> &qubits);

    std::size_t numQubits_;
    Matrix rho_;
};

} // namespace qra

#endif // QRA_SIM_DENSITY_MATRIX_HH
