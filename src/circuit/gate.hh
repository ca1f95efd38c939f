/**
 * @file
 * Gate vocabulary of the circuit IR.
 *
 * An Operation is one instruction in a circuit: a unitary gate, a
 * measurement, a reset, a barrier, or a simulator-only post-selection
 * directive (used to reproduce the paper's QUIRK experiments).
 */

#ifndef QRA_CIRCUIT_GATE_HH
#define QRA_CIRCUIT_GATE_HH

#include <optional>
#include <string>
#include <vector>

#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {

/** Every instruction kind the IR understands. */
enum class OpKind
{
    // Single-qubit unitaries.
    I, X, Y, Z, H, S, Sdg, T, Tdg, SX,
    RX, RY, RZ, P, U,
    // Multi-qubit unitaries.
    CX, CY, CZ, Swap, CCX,
    // Non-unitary instructions.
    Measure, Reset, Barrier,
    // Simulator directive: keep only the branch where the qubit reads
    // the given value (QUIRK's post-select display).
    PostSelect,
};

/** Number of qubit operands @p kind expects. */
std::size_t opNumQubits(OpKind kind);

/** Number of angle parameters @p kind expects. */
std::size_t opNumParams(OpKind kind);

/** True for instructions with a unitary matrix representation. */
bool opIsUnitary(OpKind kind);

/** Lower-case mnemonic, matching OpenQASM where one exists. */
const char *opName(OpKind kind);

/** Inverse of a parameter-free unitary, if it is itself in the set. */
std::optional<OpKind> opSelfContainedInverse(OpKind kind);

/** One instruction: kind + qubit operands + optional params/clbit. */
struct Operation
{
    OpKind kind;

    /** Qubit operands; ordering is significant (control first). */
    std::vector<Qubit> qubits;

    /** Angle parameters for RX/RY/RZ/P/U. */
    std::vector<double> params{};

    /** Destination classical bit (Measure only). */
    std::optional<Clbit> clbit{};

    /** Post-selected outcome, 0 or 1 (PostSelect only). */
    int postselectValue = 0;

    /**
     * Unitary matrix of this operation in the local little-endian
     * qubit order (bit i of the matrix index = qubits[i]).
     * @throws CircuitError for non-unitary instructions.
     */
    Matrix matrix() const;

    /** Inverse operation. @throws CircuitError if non-unitary. */
    Operation inverse() const;

    /** Human-readable rendering, e.g. "cx q1, q0". */
    std::string str() const;

    bool operator==(const Operation &rhs) const;
};

} // namespace qra

#endif // QRA_CIRCUIT_GATE_HH
