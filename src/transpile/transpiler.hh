/**
 * @file
 * Transpiler pipeline: decompose -> greedy layout -> route ->
 * direction-fix -> optimise. Produces a circuit executable on a
 * target DeviceModel (every 2-qubit gate on a native directed edge).
 *
 * transpile() is a thin wrapper over the canonical
 * compile::transpilePipeline(); compose custom stage orders (e.g.
 * the prepare pipeline's route-time ancilla binding) through
 * compile::PassManager.
 */

#ifndef QRA_TRANSPILE_TRANSPILER_HH
#define QRA_TRANSPILE_TRANSPILER_HH

#include <string>

#include "circuit/circuit.hh"
#include "transpile/coupling_map.hh"
#include "transpile/layout.hh"

namespace qra {

/** Pipeline output with per-pass statistics. */
struct TranspileResult
{
    Circuit circuit{1};
    Layout initialLayout{1};
    Layout finalLayout{1};
    std::size_t insertedSwaps = 0;
    std::size_t reversedCx = 0;
    std::size_t cancelledGates = 0;

    /** One-line summary for logs and benches. */
    std::string str() const;
};

/**
 * Compile @p circuit for a device with connectivity @p map.
 *
 * The result's circuit is expressed over physical qubits; measurement
 * clbits are unchanged, so downstream Result analysis is oblivious to
 * the mapping.
 */
TranspileResult transpile(const Circuit &circuit, const CouplingMap &map);

} // namespace qra

#endif // QRA_TRANSPILE_TRANSPILER_HH
