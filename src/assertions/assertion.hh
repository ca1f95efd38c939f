/**
 * @file
 * Base interface of the paper's dynamic assertion circuits.
 *
 * Every assertion follows the same protocol (Zhou & Byrd, Sec. 3):
 * ancilla qubits are entangled with the qubits under test by a small
 * circuit, only the ancillas are measured, and — after normalisation
 * applied by each concrete subclass — an ancilla reading |1> means an
 * assertion error. The qubits under test keep flowing through the
 * program; on the pass path the ancillas are provably disentangled,
 * so measuring them does not disturb subsequent computation.
 */

#ifndef QRA_ASSERTIONS_ASSERTION_HH
#define QRA_ASSERTIONS_ASSERTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hh"

namespace qra {

/** The three assertion families identified by Huang & Martonosi. */
enum class AssertionKind { Classical, Entanglement, Superposition };

/**
 * A dynamic (runtime) assertion: a generator of ancilla-based check
 * circuits over a set of target qubits.
 */
class Assertion
{
  public:
    virtual ~Assertion() = default;

    virtual AssertionKind kind() const = 0;

    /** Number of qubits under test this assertion checks. */
    virtual std::size_t numTargets() const = 0;

    /** Number of ancilla qubits the check consumes. */
    virtual std::size_t numAncillas() const = 0;

    /**
     * Emit the check into @p circuit.
     *
     * @param circuit Destination circuit (already widened).
     * @param targets Qubits under test, size numTargets().
     * @param ancillas Fresh |0> ancillas, size numAncillas().
     * @param clbits Classical bits receiving the ancilla
     *        measurements, size numAncillas().
     *
     * Postcondition: ancilla measurement of all-zeros means the
     * assertion passed; any |1> bit means an assertion error.
     */
    virtual void emit(Circuit &circuit, const std::vector<Qubit> &targets,
                      const std::vector<Qubit> &ancillas,
                      const std::vector<Clbit> &clbits) const = 0;

    /** Human-readable description, e.g. "assert q3 == |0>". */
    virtual std::string describe() const = 0;

  protected:
    /** Validate operand vector sizes inside emit(). */
    void checkOperands(const std::vector<Qubit> &targets,
                       const std::vector<Qubit> &ancillas,
                       const std::vector<Clbit> &clbits) const;
};

} // namespace qra

#endif // QRA_ASSERTIONS_ASSERTION_HH
