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

#include "circuit/inline_list.hh"
#include "common/error.hh"
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

// The three properties below are inline: every append validates
// against them, and the compile passes ask them per op.

/** Number of qubit operands @p kind expects. */
inline std::size_t
opNumQubits(OpKind kind)
{
    switch (kind) {
      case OpKind::I: case OpKind::X: case OpKind::Y: case OpKind::Z:
      case OpKind::H: case OpKind::S: case OpKind::Sdg: case OpKind::T:
      case OpKind::Tdg: case OpKind::SX: case OpKind::RX: case OpKind::RY:
      case OpKind::RZ: case OpKind::P: case OpKind::U:
      case OpKind::Measure: case OpKind::Reset: case OpKind::PostSelect:
        return 1;
      case OpKind::CX: case OpKind::CY: case OpKind::CZ: case OpKind::Swap:
        return 2;
      case OpKind::CCX:
        return 3;
      case OpKind::Barrier:
        return 0; // variadic: zero or more operands
    }
    QRA_PANIC("unhandled OpKind");
}

/** Number of angle parameters @p kind expects. */
inline std::size_t
opNumParams(OpKind kind)
{
    switch (kind) {
      case OpKind::RX: case OpKind::RY: case OpKind::RZ: case OpKind::P:
        return 1;
      case OpKind::U:
        return 3;
      default:
        return 0;
    }
}

/** True for instructions with a unitary matrix representation. */
inline bool
opIsUnitary(OpKind kind)
{
    switch (kind) {
      case OpKind::Measure: case OpKind::Reset: case OpKind::Barrier:
      case OpKind::PostSelect:
        return false;
      default:
        return true;
    }
}

/** Lower-case mnemonic, matching OpenQASM where one exists. */
const char *opName(OpKind kind);

/** Inverse of a parameter-free unitary, if it is itself in the set. */
std::optional<OpKind> opSelfContainedInverse(OpKind kind);

/** Qubit operands of an Operation; only a Barrier may have more than 3. */
using Operands = InlineList<Qubit, 3>;

/** Angle parameters of an Operation (at most 3, for U). */
using Angles = InlineList<double, 3>;

/**
 * One instruction: kind + qubit operands + optional params/clbit.
 *
 * Operands and angles are stored inline, so an operation owns no heap
 * memory unless it is a Barrier over more than three qubits. The
 * angles come last: the four-byte fields before them fill 32 bytes,
 * which keeps the record to one 64-byte cache line.
 */
struct Operation
{
    OpKind kind;

    /** Qubit operands; ordering is significant (control first). */
    Operands qubits;

    /** Destination classical bit (Measure only). */
    std::optional<Clbit> clbit{};

    /** Post-selected outcome, 0 or 1 (PostSelect only). */
    int postselectValue = 0;

    /** Angle parameters for RX/RY/RZ/P/U. */
    Angles params{};

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

static_assert(sizeof(Operation) <= 64,
              "an Operation must fit one cache line");

} // namespace qra

#endif // QRA_CIRCUIT_GATE_HH
