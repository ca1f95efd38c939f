/**
 * @file
 * n-qubit pure-state simulator state: a 2^n amplitude vector with
 * gate application, measurement, and post-selection primitives.
 *
 * Qubit i is bit i of the basis index (little-endian). All mutating
 * operations preserve the l2 norm to numerical precision except
 * postSelect, which renormalises explicitly.
 */

#ifndef QRA_SIM_STATE_VECTOR_HH
#define QRA_SIM_STATE_VECTOR_HH

#include <vector>

#include "circuit/gate.hh"
#include "common/rng.hh"
#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {

namespace kernels {
struct PlanEntry;
} // namespace kernels

/** Pure quantum state over a register of qubits. */
class StateVector
{
  public:
    /**
     * Largest register: 2^24 complex doubles are 256 MiB, and the
     * statevector and trajectory backends advertise exactly this cap.
     */
    static constexpr std::size_t kMaxQubits = 24;

    /** Initialise |0...0> over @p num_qubits qubits. */
    explicit StateVector(std::size_t num_qubits);

    /**
     * Construct from explicit amplitudes (size must be a power of
     * two). The vector is normalised if it is not already.
     */
    static StateVector fromAmplitudes(std::vector<Complex> amps);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }

    const std::vector<Complex> &amplitudes() const { return amps_; }

    /** Amplitude of computational basis state @p index. */
    Complex amplitude(BasisIndex index) const { return amps_[index]; }

    /**
     * Apply a k-qubit unitary to the given qubits. Matrix bit j
     * corresponds to qubits[j].
     */
    void applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits);

    /** Apply one unitary circuit operation. */
    void applyUnitary(const Operation &op);

    /**
     * Apply one pre-lowered plan entry in place (see
     * kernels::ExecutablePlan): a unitary, or a trajectory site's
     * Kraus branch pre-scaled to keep the norm. Operand qubits are
     * bounds-checked.
     * @throws SimulationError for non-unitary entries.
     */
    void applyKernel(const kernels::PlanEntry &entry);

    /**
     * Measure one qubit in the computational basis; collapses the
     * state and returns the outcome (0 or 1).
     */
    int measure(Qubit q, Rng &rng);

    /**
     * Project qubit @p q onto @p outcome and renormalise.
     *
     * @return Probability of the selected branch.
     * @throws SimulationError if that branch has (near-)zero weight.
     */
    double postSelect(Qubit q, int outcome);

    /** Non-destructive P(qubit q == 1). */
    double probabilityOfOne(Qubit q) const;

    /**
     * Probability of every basis state (|a_i|^2), filled in parallel;
     * sampled execution moves it into a CumulativeSampler, whose last
     * running sum is the total.
     */
    std::vector<double> probabilities() const;

    /**
     * Marginal distribution over @p qubits: entry b is the probability
     * that reading qubits[j] gives bit j of b.
     */
    std::vector<double> marginalProbabilities(
        const std::vector<Qubit> &qubits) const;

    /**
     * Sample a full-register outcome without collapsing the state.
     * Bit i of the result is the outcome of qubit i.
     */
    BasisIndex sample(Rng &rng) const;

    /** Reset one qubit to |0> (measure, then flip if it read 1). */
    void resetQubit(Qubit q, Rng &rng);

    /**
     * 2x2 reduced density matrix of one qubit (all others traced
     * out). Cheap: O(2^n), no full outer product.
     */
    Matrix reducedQubitDensity(Qubit q) const;

    /**
     * Purity of one qubit's reduced state; 1.0 means the qubit is
     * unentangled with the rest of the register.
     */
    double qubitPurity(Qubit q) const;

    /** |<this|other>|^2. */
    double fidelityWith(const StateVector &other) const;

    /** l2 norm (should always be ~1). */
    double norm() const;

  private:
    void checkQubit(Qubit q) const;

    std::size_t numQubits_;
    std::vector<Complex> amps_;
};

} // namespace qra

#endif // QRA_SIM_STATE_VECTOR_HH
