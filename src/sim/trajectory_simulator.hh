/**
 * @file
 * Monte-Carlo (quantum trajectory) noisy simulator on the state-vector
 * backend. Each shot samples one Kraus branch per noise insertion,
 * performs real measurement collapses, and flips recorded bits per the
 * readout confusion model.
 *
 * Handles ancilla reuse and mid-circuit reset past the density
 * backend's record-branch cap and scales to more qubits, at the cost
 * of sampling error ~ 1/sqrt(shots).
 *
 * The circuit and noise model are lowered once per run (or fetched
 * from the active PlanCache) into a kernels::TrajectoryPlan; every
 * shot replays its classified kernels and pre-built noise sites.
 *
 * The plan entries before the first Measure, ResetQ, PostSelectQ or
 * SampleKraus entry draw no random number, so a run evolves them once
 * and each shot starts from a copy (runPostSelectedShots); counts
 * equal a full replay per shot. Memory: while a run (or evolveOne)
 * with such a prefix is in progress it holds two state vectors, the
 * prefix and the working state, where one whose first entry draws
 * holds one.
 * Noiseless mid-circuit circuits (the statevector simulator's
 * non-terminal runs) and most noisy plans, which split at their first
 * noise site right after the first gate, have a prefix.
 */

#ifndef QRA_SIM_TRAJECTORY_SIMULATOR_HH
#define QRA_SIM_TRAJECTORY_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <span>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "sim/kernels/noise_plan.hh"
#include "sim/result.hh"
#include "sim/state_vector.hh"

namespace qra {

/** Stochastic noisy execution engine. */
class TrajectorySimulator
{
  public:
    explicit TrajectorySimulator(std::uint64_t seed = 7);

    /** Attach a noise model (nullptr or unset = ideal). */
    void setNoiseModel(const NoiseModel *noise) { noise_ = noise; }

    /**
     * Execute @p shots independent trajectories.
     *
     * Shots whose PostSelect directive lands on a zero-probability
     * branch are discarded (and reflected in retainedFraction()).
     */
    Result run(const Circuit &circuit, std::size_t shots);

    /**
     * The final state of the first kept trajectory of @p circuit,
     * outcomes discarded. @throws SimulationError as firstKeptState.
     */
    StateVector evolveOne(const Circuit &circuit);

    void seed(std::uint64_t seed) { rng_.seed(seed); }

  private:
    /** Sample and apply one branch of a pre-built noise site. */
    void sampleSite(const kernels::KrausSite &site, StateVector &state);

    /**
     * Replay @p entries of @p plan (and their noise sites) for one
     * shot.
     * @return false if the shot must be discarded (post-selection).
     */
    bool runShot(const kernels::TrajectoryPlan &plan,
                 std::span<const kernels::PlanEntry> entries,
                 StateVector &state, std::uint64_t &register_value);

    /** Compile (or fetch from the active PlanCache) the plan. */
    std::shared_ptr<const kernels::TrajectoryPlan>
    planFor(const Circuit &circuit) const;

    const NoiseModel *noise_ = nullptr;
    Rng rng_;
    /** Branch-weight scratch of sampleSite (reused across sites). */
    std::vector<double> weights_;
};

} // namespace qra

#endif // QRA_SIM_TRAJECTORY_SIMULATOR_HH
