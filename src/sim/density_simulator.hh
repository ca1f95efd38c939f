/**
 * @file
 * Exact noisy simulator on the density-matrix backend.
 *
 * Noise is applied per the NoiseModel: a gate-error channel after each
 * instruction, thermal relaxation to every qubit for the duration of
 * each scheduled moment, and classical readout confusion folded into
 * the final outcome distribution. The circuit and noise lower once
 * into a kernels::DensityPlan of superoperator entries over vec(rho).
 * The evolved register distribution depends on nothing else, so with
 * an active PlanCache (the runtime installs one) run() and
 * exactDistribution() evolve once per (circuit, noise, fusion) and a
 * repeated job only samples: the cached CumulativeSampler counts its
 * shots per register key, one guided draw per shot (sampleDiscrete's
 * index) below 32 shots per key and binomial splits from there on.
 * finalState() always evolves; it is the test oracle.
 *
 * A mid-circuit measurement (its qubit is used again, e.g. a reset
 * ancilla shared by several checks) branches the run: the state is a
 * list of unnormalised density matrices, one per value of the
 * mid-circuit records so far, and each record splits every branch
 * with the two diagonal projectors. A branch's trace is its weight;
 * one below 1e-15 is dropped. Terminal measurements are dephasing, read
 * off the final diagonals. The outcome distribution sums the branches,
 * keyed by their records plus the terminal bits, and folds one readout
 * confusion per clbit, for the measurement that wrote it last.
 * Post-selection projects every branch and renormalises them all by
 * the total kept trace, the retained fraction. This is exact for the
 * IR, which has no classical feed-forward.
 *
 * A run holds up to 2^k branches for k mid-circuit measurements, so
 * branchLimitReason() caps k at kMaxRecords and the branch state at
 * one DensityMatrix::kMaxQubits state (256 MiB).
 */

#ifndef QRA_SIM_DENSITY_SIMULATOR_HH
#define QRA_SIM_DENSITY_SIMULATOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "sim/density_matrix.hh"
#include "sim/kernels/density_plan.hh"
#include "sim/result.hh"

namespace qra {

namespace kernels {
struct DensityDistribution;
} // namespace kernels

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

    /**
     * Evolve and return the final mixed state with the mid-circuit
     * records traced out (the sum of the record branches); terminal
     * measurements dephase.
     */
    DensityMatrix finalState(const Circuit &circuit);

    void seed(std::uint64_t seed) { rng_.seed(seed); }

    /**
     * Most mid-circuit measurements one run branches on. Like the
     * byte cap below it bounds memory, not speed: branched cost grows
     * as 2^k·4^n per plan entry against trajectory's shots·2^n, so on
     * a cache miss trajectory is faster at 256 shots past 4 records on
     * 5 qubits, density at 8192 shots on every allowed shape measured
     * (README, "Backends and the registry"). A cache hit pays no
     * evolution at all, only the counting of its shots per key.
     */
    static constexpr std::size_t kMaxRecords = 6;

    /**
     * Why a run over @p qubits qubits with @p records mid-circuit
     * measurements would not fit, or the empty string: at most
     * kMaxRecords records, and 2^records branch states no larger in
     * total than one DensityMatrix::kMaxQubits state.
     */
    static std::string branchLimitReason(std::size_t qubits,
                                         std::size_t records);

  private:
    /** One value of the mid-circuit records and its unnormalised state. */
    struct Branch
    {
        DensityMatrix state;
        /** Record outcomes so far, each at its clbit. */
        std::uint64_t record = 0;
    };

    struct Execution
    {
        std::shared_ptr<const kernels::DensityPlan> plan;
        std::vector<Branch> branches;
        double retained = 1.0;
    };

    Execution execute(const Circuit &circuit);

    /**
     * The register distribution of @p circuit: from the active
     * PlanCache, evolved there on a miss, or evolved here without one.
     */
    std::shared_ptr<const kernels::DensityDistribution>
    registerDistribution(const Circuit &circuit);

    /** Split every branch on the record of Measure marker @p entry. */
    static void splitOnRecord(std::vector<Branch> &branches,
                              const kernels::PlanEntry &entry);

    /**
     * Project every branch onto PostSelectQ marker @p entry and
     * renormalise by their total kept trace, which is returned.
     * @throws SimulationError when that trace is (near-)zero.
     */
    static double postSelectAll(std::vector<Branch> &branches,
                                const kernels::PlanEntry &entry);

    /**
     * Register distribution of @p exec, readout error folded in, with
     * its keys and sampling sums.
     */
    kernels::DensityDistribution distribution(const Execution &exec) const;

    const NoiseModel *noise_ = nullptr;
    Rng rng_;
};

} // namespace qra

#endif // QRA_SIM_DENSITY_SIMULATOR_HH
