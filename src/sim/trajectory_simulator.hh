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
 * Execution is plan-lowered by default: the circuit and noise model
 * are compiled once per run (or fetched from the active PlanCache)
 * into a kernels::TrajectoryPlan, so the shot loop dispatches
 * classified kernels and pre-built noise sites instead of
 * re-interpreting Operation structs. The legacy interpreter remains
 * available behind setUseLoweredPlan(false) for equivalence tests and
 * the perf harness.
 */

#ifndef QRA_SIM_TRAJECTORY_SIMULATOR_HH
#define QRA_SIM_TRAJECTORY_SIMULATOR_HH

#include <cstdint>
#include <memory>

#include "circuit/circuit.hh"
#include "circuit/schedule.hh"
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
     * Toggle plan-lowered execution (default on). The legacy
     * Operation interpreter consumes the identical RNG stream, so for
     * a fixed seed it reproduces the unfused plan bit-for-bit.
     */
    void setUseLoweredPlan(bool lowered) { usePlan_ = lowered; }

    /**
     * Execute @p shots independent trajectories.
     *
     * Shots whose PostSelect directive lands on a zero-probability
     * branch are discarded (and reflected in retainedFraction()).
     */
    Result run(const Circuit &circuit, std::size_t shots);

    /** Evolve a single noisy trajectory and return its final state. */
    StateVector evolveOne(const Circuit &circuit);

    void seed(std::uint64_t seed) { rng_.seed(seed); }

  private:
    /**
     * Apply one Kraus branch of @p channel, sampled with the Born
     * weights ||K_k psi||^2 (legacy interpreter path).
     */
    void sampleKraus(StateVector &state, const KrausChannel &channel,
                     const std::vector<Qubit> &qubits);

    /**
     * Copy-based branch sampling over raw operators — shared by the
     * legacy path and the plan path's multi-qubit fallback, so their
     * numerics can never diverge.
     */
    void sampleGeneralKraus(StateVector &state,
                            const std::vector<Matrix> &ops,
                            const std::vector<Qubit> &qubits);

    /** Sample and apply one branch of a pre-built noise site. */
    void sampleSite(const kernels::KrausSite &site, StateVector &state);

    /** Timed schedule of @p circuit (computed once per run). */
    std::vector<TimedMoment> scheduleFor(const Circuit &circuit) const;

    /** @return false if the shot must be discarded (post-selection). */
    bool runShot(const Circuit &circuit,
                 const std::vector<TimedMoment> &moments,
                 StateVector &state, std::uint64_t &register_value);

    /** Plan-lowered shot: replay pre-compiled entries and sites. */
    bool runShotPlan(const kernels::TrajectoryPlan &plan,
                     StateVector &state,
                     std::uint64_t &register_value);

    /** Compile (or fetch from the active PlanCache) the plan. */
    std::shared_ptr<const kernels::TrajectoryPlan>
    planFor(const Circuit &circuit) const;

    const NoiseModel *noise_ = nullptr;
    bool usePlan_ = true;
    Rng rng_;
    /** Branch-weight scratch of sampleSite (reused across sites). */
    std::vector<double> weights_;
};

} // namespace qra

#endif // QRA_SIM_TRAJECTORY_SIMULATOR_HH
