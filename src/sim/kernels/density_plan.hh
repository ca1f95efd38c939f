/**
 * @file
 * DensityPlan: a noisy circuit lowered once per (circuit, noise,
 * fusion) into kernel entries over vec(rho).
 *
 * The density matrix is stored row-major, so its storage is already a
 * 2n-qubit state vector with index (r << n) | c: qubit q + n is bit q
 * of the row index and qubit q is bit q of the column index. Every
 * step of exact noisy evolution is then an in-place kernel on that
 * vector:
 *
 *  - a unitary U on qubits Q is U on Q + n followed by conj(U) on Q
 *    (a noise-free gate lowers exactly like the ideal ExecutablePlan,
 *    then doubles into those two entries);
 *  - a channel {K} on Q is one superoperator S = sum K (x) conj(K)
 *    on (Q, Q + n): a 4x4 entry for a one-qubit channel, a 16x16
 *    GenericK for a two-qubit channel (see superoperator());
 *  - terminal-measurement dephasing and reset are superoperators
 *    too; post-selection projects and renormalises by the kept trace,
 *    so it stays a PostSelectQ marker the simulator executes;
 *  - a mid-circuit measurement (its qubit is used again, see
 *    midCircuitMeasurements()) is a fence plus a Measure marker
 *    (q0 -> clbit): the simulator splits every record branch there
 *    with the two diagonal projectors (DensityMatrixSimulator).
 *
 * Fusion is levelled as for the other plans:
 *  - level 0: one entry (pair) per instruction and per channel;
 *  - level 1: noise-free 1q runs fuse as in ExecutablePlan; a gate
 *    and its own noise channel fold into one superoperator; and every
 *    one-qubit superoperator on a qubit (noisy 1q gates, idle
 *    relaxation, measurement dephasing, reset) accumulates into one
 *    4x4 until a multi-qubit entry touches the qubit;
 *  - level 2: noise-free segments additionally get the two-qubit
 *    window pass (fuse2qWindows).
 * Barriers, post-selections and mid-circuit measurements fence all
 * fusion.
 *
 * Instruction order is the timed ASAP moment schedule, with thermal
 * relaxation per moment on every qubit except those already measured
 * terminally (their record is taken, so they freeze); a qubit measured
 * mid-circuit keeps relaxing, as in the trajectory model.
 */

#ifndef QRA_SIM_KERNELS_DENSITY_PLAN_HH
#define QRA_SIM_KERNELS_DENSITY_PLAN_HH

#include <vector>

#include "circuit/circuit.hh"
#include "math/matrix.hh"
#include "noise/noise_model.hh"
#include "sim/kernels/plan.hh"

namespace qra {
namespace kernels {

/**
 * Superoperator sum_k K_k (x) conj(K_k) of Kraus operators on k
 * qubits Q, acting on vec(rho) over the operand list (Q, Q + n):
 * matrix bits 0..k-1 are the column-index qubits Q, bits k..2k-1 the
 * row-index qubits Q + n. A single unitary {U} gives U (x) conj(U).
 */
Matrix superoperator(const std::vector<Matrix> &kraus);

/** A noisy circuit lowered to entries over vec(rho). */
class DensityPlan
{
  public:
    /** The measurement whose outcome a clbit ends up holding. */
    struct ClbitWriter
    {
        Qubit qubit;
        Clbit clbit;
        /**
         * True for a mid-circuit measurement: the bit is its branch
         * record. False for a terminal one: the bit is read off the
         * final diagonal.
         */
        bool record;
    };

    /**
     * Lower @p circuit with @p noise folded in (nullptr or disabled =
     * ideal). Fusion level as ExecutablePlan::compile; negative =
     * the thread's currentFusionLevel().
     */
    static DensityPlan compile(const Circuit &circuit,
                               const NoiseModel *noise,
                               int fusion = -1);

    /**
     * Unitary entries over the 2n-qubit vector view, plus PostSelectQ
     * and Measure markers whose q0 is the register qubit.
     */
    const std::vector<PlanEntry> &entries() const { return entries_; }

    /**
     * The last writer of each written clbit, in the schedule order of
     * those last writes (a clbit written twice keeps only its later
     * measurement, as a trajectory's register does).
     */
    const std::vector<ClbitWriter> &clbitWriters() const
    {
        return writers_;
    }

    /** Number of Measure markers: a run holds up to 2^records() branches. */
    std::size_t records() const { return records_; }

    const PlanStats &stats() const { return stats_; }

  private:
    std::vector<PlanEntry> entries_;
    std::vector<ClbitWriter> writers_;
    std::size_t records_ = 0;
    PlanStats stats_;
};

} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_DENSITY_PLAN_HH
