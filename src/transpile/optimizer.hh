/**
 * @file
 * Peephole optimiser: cancels adjacent inverse pairs (H H, CX CX,
 * S Sdg, T Tdg, X X, ...) and merges rotation gates on the same
 * qubit. Relevant to assertion circuits, whose parity checks insert
 * CNOT pairs that can partially cancel against user gates when the
 * assertion is removed.
 */

#ifndef QRA_TRANSPILE_OPTIMIZER_HH
#define QRA_TRANSPILE_OPTIMIZER_HH

#include "circuit/circuit.hh"

namespace qra {

/** Statistics returned by optimizeCircuit. */
struct OptimizeResult
{
    Circuit circuit;
    /** Gates removed by inverse-pair cancellation. */
    std::size_t cancelledGates = 0;
    /** Rotation gates merged into a single rotation. */
    std::size_t mergedRotations = 0;
};

/**
 * Run cancellation/merging to a fixed point in one pass: each op is
 * checked against the last kept op on the same operand list, so
 * optimizeCircuit(optimizeCircuit(c).circuit) finds nothing more.
 * Consumes @p circuit (pass an rvalue to move its ops, not copy them).
 *
 * Barriers fence the optimiser: nothing cancels across a barrier, so
 * assertion blocks wrapped in barriers are never optimised away.
 */
OptimizeResult optimizeCircuit(Circuit circuit);

} // namespace qra

#endif // QRA_TRANSPILE_OPTIMIZER_HH
