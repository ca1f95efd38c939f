/**
 * @file
 * Moment scheduling: partition a circuit into layers of instructions
 * that act on disjoint qubits. The noisy simulators use moments to
 * apply relaxation noise to *idle* qubits for the duration of each
 * layer, which is what makes the ibmqx4 model's timing realistic.
 */

#ifndef QRA_CIRCUIT_SCHEDULE_HH
#define QRA_CIRCUIT_SCHEDULE_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "circuit/circuit.hh"

namespace qra {

/** One layer of simultaneously executable instructions. */
struct Moment
{
    /** Indices into Circuit::ops() of the instructions in this layer. */
    std::vector<std::size_t> opIndices;
};

/**
 * ASAP moment partition of @p circuit.
 *
 * Instructions are greedily packed into the earliest moment where all
 * their operands are free. Barriers close every open moment (they
 * synchronise all listed qubits) and do not appear in the output.
 */
std::vector<Moment> computeMoments(const Circuit &circuit);

/** Callback mapping an operation to its duration in nanoseconds. */
using DurationFn = std::function<double(const Operation &)>;

/** A moment annotated with its wall-clock span. */
struct TimedMoment
{
    std::vector<std::size_t> opIndices;
    double startNs = 0.0;
    /** Duration of the slowest instruction in the moment. */
    double durationNs = 0.0;
};

/**
 * Timed ASAP schedule: each moment's duration is the maximum operand
 * duration within it, and start times accumulate.
 */
std::vector<TimedMoment> computeTimedMoments(const Circuit &circuit,
                                             const DurationFn &duration);

/** Total wall-clock time of the timed schedule, in nanoseconds. */
double scheduleDuration(const std::vector<TimedMoment> &moments);

/**
 * Per op of @p circuit: true for a *mid-circuit* measurement, one whose
 * qubit a later non-barrier op touches (gate, reset, post-selection or
 * another measurement); false for every other op, terminal
 * measurements included. Every schedule keeps each qubit's program
 * order, so the split holds in any of them.
 */
std::vector<bool> midCircuitMeasurements(const Circuit &circuit);

} // namespace qra

#endif // QRA_CIRCUIT_SCHEDULE_HH
