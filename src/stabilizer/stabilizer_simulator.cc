#include "stabilizer/stabilizer_simulator.hh"

#include "common/error.hh"
#include "sim/shot_util.hh"

namespace qra {

StabilizerSimulator::StabilizerSimulator(std::uint64_t seed) : rng_(seed)
{
}

bool
StabilizerSimulator::supports(const Circuit &circuit)
{
    for (const Operation &op : circuit.ops()) {
        switch (op.kind) {
          case OpKind::Measure: case OpKind::Reset:
          case OpKind::Barrier: case OpKind::PostSelect:
            continue;
          default:
            if (!StabilizerState::isCliffordOp(op.kind))
                return false;
        }
    }
    return true;
}

bool
StabilizerSimulator::runShot(std::span<const Operation> ops,
                             StabilizerState &state,
                             std::uint64_t &register_value)
{
    register_value = 0;
    for (const Operation &op : ops) {
        switch (op.kind) {
          case OpKind::Measure:
          {
            const int outcome = state.measure(op.qubits[0], rng_);
            if (outcome)
                register_value |= std::uint64_t{1} << *op.clbit;
            else
                register_value &= ~(std::uint64_t{1} << *op.clbit);
            break;
          }
          case OpKind::Reset:
            state.resetQubit(op.qubits[0], rng_);
            break;
          case OpKind::Barrier:
            break;
          case OpKind::PostSelect:
          {
            // Conditioning semantics shared with the other
            // backends: survive with the branch probability. A
            // discarded shot's state is dropped, so project in place.
            const double p =
                state.postSelect(op.qubits[0], op.postselectValue);
            if (p == 0.0 || rng_.uniform() >= p)
                return false;
            break;
          }
          default:
            state.applyUnitary(op);
        }
    }
    return true;
}

namespace {

/**
 * Split before the first op that can draw: a measurement or reset
 * draws when its outcome is random, a PostSelect always draws.
 */
SplitSteps<Operation>
splitCircuit(const Circuit &circuit)
{
    return splitAtFirstDraw(circuit.ops(), [](const Operation &op) {
        return op.kind == OpKind::Measure || op.kind == OpKind::Reset ||
               op.kind == OpKind::PostSelect;
    });
}

} // namespace

Result
StabilizerSimulator::run(const Circuit &circuit, std::size_t shots)
{
    return runPostSelectedShots<StabilizerState>(
        circuit, shots, splitCircuit(circuit),
        [&](StabilizerState &state, std::span<const Operation> ops,
            std::uint64_t &reg) { return runShot(ops, state, reg); });
}

StabilizerState
StabilizerSimulator::evolveOne(const Circuit &circuit)
{
    return firstKeptState<StabilizerState>(
        circuit, splitCircuit(circuit),
        [&](StabilizerState &state, std::span<const Operation> ops,
            std::uint64_t &reg) { return runShot(ops, state, reg); });
}

} // namespace qra
