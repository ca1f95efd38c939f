#include "transpile/optimizer.hh"

#include <cmath>

namespace qra {

namespace {

/** True when two ops are exact inverse pairs eligible to cancel. */
bool
cancels(const Operation &a, const Operation &b)
{
    if (a.qubits != b.qubits)
        return false;
    if (!opIsUnitary(a.kind) || !opIsUnitary(b.kind))
        return false;

    const auto inv = opSelfContainedInverse(a.kind);
    return inv && *inv == b.kind && a.params.empty() && b.params.empty();
}

/** Rotation kinds that merge by summing angles. */
bool
mergeable(OpKind kind)
{
    return kind == OpKind::RX || kind == OpKind::RY ||
           kind == OpKind::RZ || kind == OpKind::P;
}

/** Angle congruent to zero (mod 4*pi for rotations, 2*pi for P). */
bool
isNullAngle(OpKind kind, double theta)
{
    const double period = kind == OpKind::P ? 2.0 * M_PI : 4.0 * M_PI;
    const double r = std::fmod(std::abs(theta), period);
    return r < 1e-12 || period - r < 1e-12;
}

} // namespace

OptimizeResult
optimizeCircuit(Circuit circuit)
{
    // One pass of a stack reaches the fixed point. The stack never
    // holds an adjacent pair that cancels or merges: a push is checked
    // against the top, a pop leaves an already-reduced prefix, and a
    // merge keeps the top's kind and operands, which did not match
    // the op below it. ops[0, top) is the stack, compacted in place.
    std::vector<Operation> ops = circuit.takeOps();
    std::size_t top = 0;
    std::size_t cancelled = 0;
    std::size_t merged = 0;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        Operation &op = ops[i];
        if (top > 0) {
            Operation &prev = ops[top - 1];

            // Only compare against the previous op when no
            // intervening op shares a qubit; with a simple stack
            // we approximate by requiring *adjacency on the same
            // operand set*, which is safe (sound, not complete).
            if (cancels(prev, op)) {
                --top;
                cancelled += 2;
                continue;
            }
            if (op.kind == prev.kind && mergeable(op.kind) &&
                op.qubits == prev.qubits) {
                prev.params[0] += op.params[0];
                ++merged;
                if (isNullAngle(prev.kind, prev.params[0])) {
                    --top;
                    cancelled += 1;
                }
                continue;
            }
        }
        if (top != i)
            ops[top] = std::move(op);
        ++top;
    }
    ops.resize(top);

    // Sized exactly: the result is what the prepare cache keeps.
    Circuit out(circuit.numQubits(), circuit.numClbits(),
                circuit.name() + "_opt");
    out.reserve(ops.size());
    for (Operation &op : ops)
        out.append(std::move(op));

    return OptimizeResult{std::move(out), cancelled, merged};
}

} // namespace qra
