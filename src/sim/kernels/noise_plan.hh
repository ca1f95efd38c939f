/**
 * @file
 * TrajectoryPlan: a noisy circuit pre-lowered once per job into kernel
 * dispatch entries with interleaved noise hooks.
 *
 * The legacy trajectory path re-interpreted Operation structs every
 * shot: rebuilding gate matrices, looking channels up in the noise
 * model's maps, and re-deriving thermal-relaxation channels (matrix
 * exponentials) per moment — all loop-invariant work. Lowering hoists
 * it out of the shot loop:
 *
 *  - unitary segments between noise sites lower to classified kernel
 *    entries and fuse exactly like the ideal ExecutablePlan (noise
 *    sites and measurements fence fusion, so semantics are preserved);
 *  - every Kraus insertion becomes an explicit SampleKraus entry
 *    pointing at a pre-built Site. Sites whose operators are all
 *    *scaled unitaries* (depolarising channels: K_k = c_k U_k) carry
 *    fixed branch weights |c_k|^2 and pre-lowered branch kernels, so
 *    sampling costs one uniform draw and one in-place kernel — no
 *    per-branch state copies, no norm scans;
 *  - state-dependent one-qubit sites (thermal relaxation) carry each
 *    operator with its Gram matrix: one read of the state gives the
 *    qubit's 2x2 reduced density and from it every branch weight,
 *    and the chosen operator is applied pre-scaled in one pass;
 *  - readout confusion is attached to Measure entries as a site index,
 *    and relaxation channels are pre-derived per scheduled moment.
 *
 * RNG draw order matches the legacy interpreter exactly (one uniform
 * per multi-branch site, one per measurement, one per imperfect
 * readout, one per surviving post-selection), so for a fixed seed the
 * unfused plan draws the legacy trajectory's branches and outcomes;
 * its amplitudes agree with the legacy ones to rounding.
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

/** One pre-built Kraus insertion point. */
struct KrausSite
{
    /**
     * True when every operator is a scaled unitary: the branch Born
     * weights are state-independent and the branches preserve the
     * norm, so sampling needs no state copies.
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

    /**
     * Raw Kraus operators of a state-dependent multi-qubit site,
     * sampled on branch copies (the legacy interpreter's path).
     */
    std::vector<Matrix> ops;

    /** Operand qubits (state-dependent sites). */
    std::vector<Qubit> qubits;
};

/** A noisy circuit lowered to entries plus noise-site tables. */
class TrajectoryPlan
{
  public:
    /**
     * Lower @p circuit with @p noise interleaved (nullptr or disabled
     * = ideal). Fusion level as ExecutablePlan::compile; noise sites,
     * measurements and resets fence fusion. The instruction order is
     * the timed ASAP moment schedule — identical to what the legacy
     * interpreter executed.
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
