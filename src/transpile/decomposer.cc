#include "transpile/decomposer.hh"

#include <algorithm>

namespace qra {

namespace {

void
emitSwap(Circuit &out, Qubit a, Qubit b)
{
    out.cx(a, b);
    out.cx(b, a);
    out.cx(a, b);
}

void
emitCcx(Circuit &out, Qubit c0, Qubit c1, Qubit target)
{
    // Standard Toffoli over {H, T, Tdg, CX} (six CNOTs).
    out.h(target);
    out.cx(c1, target);
    out.tdg(target);
    out.cx(c0, target);
    out.t(target);
    out.cx(c1, target);
    out.tdg(target);
    out.cx(c0, target);
    out.t(c1);
    out.t(target);
    out.h(target);
    out.cx(c0, c1);
    out.t(c0);
    out.tdg(c1);
    out.cx(c0, c1);
}

/** True when @p options lower @p kind. */
bool
lowers(OpKind kind, const DecomposeOptions &options)
{
    switch (kind) {
      case OpKind::Swap:
        return options.decomposeSwap;
      case OpKind::CCX:
        return options.decomposeCcx;
      default:
        return false;
    }
}

} // namespace

Circuit
decompose(Circuit circuit, const DecomposeOptions &options)
{
    std::string name = circuit.name() + "_decomposed";
    const std::vector<Operation> &ops = circuit.ops();
    if (std::none_of(ops.begin(), ops.end(), [&](const Operation &op) {
            return lowers(op.kind, options);
        })) {
        circuit.setName(std::move(name));
        return circuit;
    }

    Circuit out(circuit.numQubits(), circuit.numClbits(), std::move(name));
    for (Operation &op : circuit.takeOps()) {
        if (!lowers(op.kind, options)) {
            out.append(std::move(op));
            continue;
        }
        const Operands &q = op.qubits;
        if (op.kind == OpKind::Swap)
            emitSwap(out, q[0], q[1]);
        else // CCX
            emitCcx(out, q[0], q[1], q[2]);
    }
    return out;
}

} // namespace qra
