/**
 * @file
 * TrajectoryPlan: a noisy circuit lowered once per job into kernel
 * dispatch entries with interleaved noise hooks. Gate matrices, noise
 * model lookups and thermal-relaxation channels (matrix exponentials)
 * are loop-invariant, so the trajectory shot loop never sees them:
 *
 *  - instructions run in the timed ASAP moment schedule; unitary
 *    segments between noise sites lower to classified kernel entries
 *    and fuse exactly like the ideal ExecutablePlan (noise sites,
 *    measurements, resets and barriers fence fusion);
 *  - a single-operator channel is unitary and lowers to plain entries;
 *  - every other Kraus insertion becomes a SampleKraus entry pointing
 *    at a pre-built KrausSite of one of two kinds. A *fixed-weight*
 *    site has only scaled-unitary operators K_k = c_k U_k once the
 *    exactly-zero ones are dropped (depolarising channels at any p),
 *    so sampling costs one uniform draw against the weights |c_k|^2
 *    and one or two in-place kernels. A *state-dependent one-qubit*
 *    site (thermal relaxation) carries each operator with its Gram
 *    matrix: one read of the state gives the qubit's 2x2 reduced
 *    density and from it every branch weight, and the chosen operator
 *    is applied pre-scaled in one pass;
 *  - readout confusion is attached to Measure entries as an index,
 *    and relaxation channels are pre-derived per scheduled moment.
 *
 * A shot draws, in entry order, one uniform per SampleKraus site, one
 * per measurement or reset, one per imperfect readout and one per
 * post-selection of a possible outcome. Fusion leaves the sites and
 * this draw sequence unchanged.
 */

#ifndef QRA_SIM_KERNELS_NOISE_PLAN_HH
#define QRA_SIM_KERNELS_NOISE_PLAN_HH

#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "math/matrix.hh"
#include "noise/noise_model.hh"
#include "noise/readout_error.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/plan.hh"

namespace qra {
namespace kernels {

/**
 * One operator of a state-dependent one-qubit site: K as a flat 2x2
 * plus its Gram matrix G = K^dagger K, so every branch weight of the
 * site comes from one read of the state (kernels::reduceQubitDensity).
 */
struct Kraus1q
{
    /** Lower the 2x2 operator @p k. */
    explicit Kraus1q(const Matrix &k);

    /**
     * Born weight ||K psi||^2 = tr(G rho_q) = G00 r00 + G11 r11 +
     * 2 Re(G01 c01), clamped at 0 (rounding can dip an empty branch
     * below it).
     */
    double weight(const QubitDensity &rho) const;

    /** K, row-major. */
    Complex m[4];

    /** The real diagonal of G. */
    double g00 = 0.0, g11 = 0.0;

    /** G(0, 1); G(1, 0) is its conjugate. */
    Complex g01{0.0, 0.0};

    /**
     * Diagonal1q when K's off-diagonal entries are exactly zero,
     * otherwise General1q — the kernel kernels::applyMatrix picks.
     */
    KernelKind kind = KernelKind::General1q;
};

/**
 * One pre-built Kraus insertion point: a fixed-weight site (any
 * arity) or a state-dependent one-qubit site. compile() rejects a
 * channel that is neither; no NoiseModel emits one.
 */
struct KrausSite
{
    /**
     * True when every nonzero operator is a scaled unitary: the branch
     * Born weights are state-independent and the branches preserve
     * the norm, so sampling needs no state reads.
     */
    bool fixedWeights = false;

    /** Branch weights |c_k|^2 (fixedWeights only; sum ~1). */
    std::vector<double> weights;

    /**
     * Pre-lowered unitary branch kernels (fixedWeights only), one
     * entry list per branch: tensor-product branches (X⊗Z of a
     * two-qubit depolarising channel) lower to two cheap 1q kernels,
     * identity branches to an empty list.
     */
    std::vector<std::vector<PlanEntry>> branches;

    /**
     * Operators of a state-dependent one-qubit site (thermal
     * relaxation, amplitude damping): the branch weights come from
     * the qubit's reduced density, and the chosen operator is applied
     * pre-scaled by 1/sqrt(weight) in one in-place pass.
     */
    std::vector<Kraus1q> ops1q;

    /** Operand qubits. */
    std::vector<Qubit> qubits;
};

/** A noisy circuit lowered to entries plus noise-site tables. */
class TrajectoryPlan
{
  public:
    /**
     * Lower @p circuit with @p noise interleaved (nullptr or disabled
     * = ideal). Fusion level as ExecutablePlan::compile; noise sites,
     * measurements, resets and barriers fence fusion. The instruction
     * order is the timed ASAP moment schedule of @p noise's gate
     * durations.
     * @throws SimulationError for a multi-qubit channel that is not
     *         a mix of scaled unitaries.
     */
    static TrajectoryPlan compile(const Circuit &circuit,
                                  const NoiseModel *noise,
                                  int fusion = -1);

    const std::vector<PlanEntry> &entries() const { return entries_; }
    const KrausSite &site(std::int32_t i) const { return sites_[i]; }
    const ReadoutError &readout(std::int32_t i) const
    {
        return readouts_[i];
    }
    std::size_t numSites() const { return sites_.size(); }
    const PlanStats &stats() const { return stats_; }
    std::size_t numQubits() const { return numQubits_; }

  private:
    std::vector<PlanEntry> entries_;
    std::vector<KrausSite> sites_;
    std::vector<ReadoutError> readouts_;
    PlanStats stats_;
    std::size_t numQubits_ = 0;
};

} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_NOISE_PLAN_HH
