/**
 * @file
 * CNOT direction fixing for devices with directed couplings.
 *
 * ibmqx4-class devices implement CNOT in one direction per coupled
 * pair. A reversed CNOT is synthesised with four Hadamards:
 *   CX(a, b) = (H a)(H b) CX(b, a) (H a)(H b).
 * This is the concrete cost behind the paper's remark that qubit
 * choice was dictated by device connectivity.
 */

#ifndef QRA_TRANSPILE_DIRECTION_FIXER_HH
#define QRA_TRANSPILE_DIRECTION_FIXER_HH

#include "circuit/circuit.hh"
#include "transpile/coupling_map.hh"

namespace qra {

/** Statistics returned by fixDirections. */
struct DirectionFixResult
{
    Circuit circuit;
    /** CNOTs that had to be reversed via H conjugation. */
    std::size_t reversedCx = 0;
};

/**
 * Rewrite every CX whose orientation is not native into the
 * H-conjugated reverse CX. CZ and Swap are symmetric and pass
 * through; any other 2-qubit gate is an error (decompose first).
 *
 * Every 2-qubit gate is checked, but the circuit is rebuilt only when
 * some CX is reversed: on a map whose edges are all bidirectional the
 * input comes back as it went in (renamed "<name>_directed"). Consumes
 * @p circuit (pass an rvalue to avoid a copy).
 *
 * @pre Every 2-qubit gate acts on a coupled pair (route first).
 * @throws TranspileError on an uncoupled pair or a gate it cannot fix.
 */
DirectionFixResult fixDirections(Circuit circuit, const CouplingMap &map);

} // namespace qra

#endif // QRA_TRANSPILE_DIRECTION_FIXER_HH
