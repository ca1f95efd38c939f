/**
 * @file
 * Ideal (noiseless) shot-based simulator on the StateVector backend.
 *
 * Two execution strategies, sampled, else a noiseless trajectory:
 *  - If every measurement is terminal (no op but another measurement
 *    touches a measured qubit afterwards: a noiseless re-read repeats
 *    the bit) and there is no Reset, the circuit is evolved once and
 *    outcomes are sampled from the final distribution.
 *  - Otherwise (mid-circuit measurement, reset, ancilla reuse) the
 *    run is a noiseless TrajectorySimulator run, seeded by one draw
 *    from this simulator's generator.
 *
 * PostSelect directives condition the run: trajectories in the
 * discarded branch are dropped and the retained fraction is reported
 * on the Result (mirroring QUIRK's post-selection display).
 */

#ifndef QRA_SIM_STATEVECTOR_SIMULATOR_HH
#define QRA_SIM_STATEVECTOR_SIMULATOR_HH

#include <cstdint>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "sim/result.hh"
#include "sim/state_vector.hh"

namespace qra {

/** Ideal state-vector execution engine. */
class StatevectorSimulator
{
  public:
    /** @param seed Seed for measurement sampling. */
    explicit StatevectorSimulator(std::uint64_t seed = 7);

    /** Execute @p circuit for @p shots shots and collect counts. */
    Result run(const Circuit &circuit, std::size_t shots);

    /**
     * Evolve the circuit once, skipping Measure instructions but
     * honouring PostSelect, and return the final state. This is the
     * QUIRK-style inspection mode used by the paper's Figs. 6-7.
     */
    StateVector finalState(const Circuit &circuit);

    /**
     * The final state of the first kept trajectory: real measurement
     * collapses (outcomes discarded), and PostSelect conditions the
     * trajectory, which is re-attempted when discarded.
     *
     * @throws SimulationError when post-selection discards every
     * attempt.
     */
    StateVector evolveWithMeasurements(const Circuit &circuit);

    /** Reseed the internal generator. */
    void seed(std::uint64_t seed) { rng_.seed(seed); }

  private:
    Result runSampled(const Circuit &circuit, std::size_t shots);

    Rng rng_;
};

} // namespace qra

#endif // QRA_SIM_STATEVECTOR_SIMULATOR_HH
