#include "transpile/direction_fixer.hh"

#include "common/error.hh"

namespace qra {

namespace {

/**
 * Check that @p op may run on @p map; true when it is a CX against
 * its edge's native direction.
 */
bool
runsAgainstEdge(const Operation &op, const CouplingMap &map)
{
    if (op.qubits.size() != 2 || !opIsUnitary(op.kind))
        return false;

    const Qubit a = op.qubits[0];
    const Qubit b = op.qubits[1];
    if (!map.connected(a, b))
        throw TranspileError(
            "gate on uncoupled pair (" + std::to_string(a) + ", " +
            std::to_string(b) + "); run the router first");

    switch (op.kind) {
      case OpKind::CZ:
      case OpKind::Swap:
        // Symmetric gates: any orientation is fine.
        return false;
      case OpKind::CX:
        return !map.hasEdge(a, b);
      default:
        throw TranspileError(
            std::string("cannot direction-fix gate '") +
            opName(op.kind) + "'; decompose it to CX first");
    }
}

} // namespace

DirectionFixResult
fixDirections(Circuit circuit, const CouplingMap &map)
{
    std::string name = circuit.name() + "_directed";
    std::size_t reversed = 0;
    for (const Operation &op : circuit.ops())
        reversed += runsAgainstEdge(op, map) ? 1 : 0;
    if (reversed == 0) {
        circuit.setName(std::move(name));
        return DirectionFixResult{std::move(circuit), 0};
    }

    Circuit fixed(circuit.numQubits(), circuit.numClbits(),
                  std::move(name));
    for (Operation &op : circuit.takeOps()) {
        if (op.kind == OpKind::CX &&
            !map.hasEdge(op.qubits[0], op.qubits[1])) {
            // Native direction is b->a: conjugate with Hadamards.
            const Qubit a = op.qubits[0];
            const Qubit b = op.qubits[1];
            fixed.h(a).h(b);
            fixed.cx(b, a);
            fixed.h(a).h(b);
        } else {
            fixed.append(std::move(op));
        }
    }
    return DirectionFixResult{std::move(fixed), reversed};
}

} // namespace qra
