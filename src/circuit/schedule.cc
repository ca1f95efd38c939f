#include "circuit/schedule.hh"

#include <algorithm>

namespace qra {

std::vector<Moment>
computeMoments(const Circuit &circuit)
{
    std::vector<std::size_t> level(circuit.numQubits(), 0);
    std::vector<Moment> moments;

    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Operation &op = circuit.ops()[i];

        if (op.kind == OpKind::Barrier) {
            // Synchronise all listed qubits to the same level.
            std::size_t sync = 0;
            for (Qubit q : op.qubits)
                sync = std::max(sync, level[q]);
            for (Qubit q : op.qubits)
                level[q] = sync;
            continue;
        }

        std::size_t slot = 0;
        for (Qubit q : op.qubits)
            slot = std::max(slot, level[q]);
        if (slot >= moments.size())
            moments.resize(slot + 1);
        moments[slot].opIndices.push_back(i);
        for (Qubit q : op.qubits)
            level[q] = slot + 1;
    }
    return moments;
}

std::vector<TimedMoment>
computeTimedMoments(const Circuit &circuit, const DurationFn &duration)
{
    const std::vector<Moment> moments = computeMoments(circuit);
    std::vector<TimedMoment> timed;
    timed.reserve(moments.size());

    double clock = 0.0;
    for (const Moment &m : moments) {
        TimedMoment tm;
        tm.opIndices = m.opIndices;
        tm.startNs = clock;
        for (std::size_t idx : m.opIndices)
            tm.durationNs =
                std::max(tm.durationNs, duration(circuit.ops()[idx]));
        clock += tm.durationNs;
        timed.push_back(std::move(tm));
    }
    return timed;
}

double
scheduleDuration(const std::vector<TimedMoment> &moments)
{
    if (moments.empty())
        return 0.0;
    const TimedMoment &last = moments.back();
    return last.startNs + last.durationNs;
}

std::vector<bool>
midCircuitMeasurements(const Circuit &circuit)
{
    // Walk backwards: a measurement is mid-circuit iff its qubit was
    // touched by some op after it.
    std::vector<bool> mid(circuit.size(), false);
    std::vector<bool> touched(circuit.numQubits(), false);
    for (std::size_t i = circuit.size(); i-- > 0;) {
        const Operation &op = circuit.ops()[i];
        if (op.kind == OpKind::Barrier)
            continue;
        if (op.kind == OpKind::Measure)
            mid[i] = touched[op.qubits[0]];
        for (const Qubit q : op.qubits)
            touched[q] = true;
    }
    return mid;
}

} // namespace qra
