/**
 * @file
 * Shot-based simulator on the stabilizer-tableau backend. Runs
 * Clifford circuits (which includes every assertion circuit in the
 * paper) at qubit counts far beyond state-vector reach.
 */

#ifndef QRA_STABILIZER_STABILIZER_SIMULATOR_HH
#define QRA_STABILIZER_STABILIZER_SIMULATOR_HH

#include <cstdint>
#include <span>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "sim/result.hh"
#include "stabilizer/stabilizer_state.hh"

namespace qra {

/** Clifford-circuit execution engine. */
class StabilizerSimulator
{
  public:
    explicit StabilizerSimulator(std::uint64_t seed = 7);

    /**
     * True when every instruction of @p circuit is executable on the
     * stabilizer backend.
     */
    static bool supports(const Circuit &circuit);

    /**
     * Execute @p circuit for @p shots shots.
     *
     * The ops before the first Measure, Reset or PostSelect are
     * evolved once per run, and each shot starts from a copy of that
     * tableau (runPostSelectedShots). A measurement or reset draws
     * only when its outcome is random and a PostSelect always draws,
     * so the prefix consumes no RNG and counts equal a full re-walk
     * per shot. Shots discarded by PostSelect directives are
     * re-attempted, as on the other backends.
     * @throws SimulationError on non-Clifford gates.
     */
    Result run(const Circuit &circuit, std::size_t shots);

    /**
     * Evolve one trajectory (the same prefix reuse as run) and return
     * the final tableau state.
     */
    StabilizerState evolveOne(const Circuit &circuit);

    void seed(std::uint64_t seed) { rng_.seed(seed); }

  private:
    /**
     * Apply @p ops to @p state for one shot.
     * @return false when the shot was discarded by post-selection.
     */
    bool runShot(std::span<const Operation> ops, StabilizerState &state,
                 std::uint64_t &register_value);

    Rng rng_;
};

} // namespace qra

#endif // QRA_STABILIZER_STABILIZER_SIMULATOR_HH
