/**
 * @file
 * Exact noisy simulator on the density-matrix backend.
 *
 * Noise is applied per the NoiseModel: a gate-error channel after each
 * instruction, thermal relaxation to every qubit for the duration of
 * each scheduled moment, and classical readout confusion folded into
 * the final outcome distribution. The circuit and noise lower once
 * into a kernels::DensityPlan of superoperator entries over vec(rho),
 * served by the active PlanCache when there is one (the runtime
 * installs it), so repeated jobs only replay the plan.
 *
 * Measurements must be terminal per qubit (a measured qubit may not
 * be operated on again): the backend models measurement as dephasing
 * and reads the joint outcome distribution off the final diagonal,
 * which is exact under that restriction. Use TrajectorySimulator for
 * ancilla-reuse circuits.
 */

#ifndef QRA_SIM_DENSITY_SIMULATOR_HH
#define QRA_SIM_DENSITY_SIMULATOR_HH

#include <cstdint>
#include <map>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "sim/density_matrix.hh"
#include "sim/result.hh"

namespace qra {

/** Exact (all-branches) noisy execution engine. */
class DensityMatrixSimulator
{
  public:
    explicit DensityMatrixSimulator(std::uint64_t seed = 7);

    /** Attach a noise model (nullptr or unset = ideal). */
    void setNoiseModel(const NoiseModel *noise) { noise_ = noise; }

    /**
     * Execute and sample @p shots outcomes from the exact final
     * distribution. The Result also carries the exact distribution.
     */
    Result run(const Circuit &circuit, std::size_t shots);

    /**
     * Exact outcome distribution over the classical register,
     * including readout error. Keys are register values.
     */
    std::map<std::uint64_t, double>
    exactDistribution(const Circuit &circuit);

    /** Evolve and return the final mixed state (measures dephase). */
    DensityMatrix finalState(const Circuit &circuit);

    void seed(std::uint64_t seed) { rng_.seed(seed); }

  private:
    struct Execution
    {
        DensityMatrix state;
        /** measured qubit -> clbit wiring, in program order. */
        std::vector<std::pair<Qubit, Clbit>> wiring;
        double retained = 1.0;

        explicit Execution(std::size_t nq) : state(nq) {}
    };

    Execution execute(const Circuit &circuit);

    /** Register distribution of @p exec, readout error folded in. */
    std::map<std::uint64_t, double>
    distribution(const Execution &exec) const;

    const NoiseModel *noise_ = nullptr;
    Rng rng_;
};

} // namespace qra

#endif // QRA_SIM_DENSITY_SIMULATOR_HH
