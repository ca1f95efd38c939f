/**
 * @file
 * ExecutablePlan: a circuit pre-lowered to kernel dispatch entries.
 *
 * Compiling once per job (instead of re-interpreting Operation
 * structs and re-building gate matrices per shot) buys two things:
 *  - adjacent single-qubit gates on the same target fuse into one
 *    2x2 matrix, then classify into the cheapest kernel (identity
 *    fusions vanish entirely, diagonal fusions skip the pair loop);
 *  - each entry carries its kernel class, so per-gate dispatch in the
 *    shot loop is a switch on an enum, not matrix construction. How
 *    a pair kernel walks the state is not part of the entry: the
 *    kernel decides it per call (traversal.hh).
 *
 * Non-unitary instructions (Measure / Reset / PostSelect) lower to
 * marker entries that the simulators interpret; Barrier acts as a
 * fusion fence and emits nothing.
 *
 * Fusion is levelled:
 *  - level 0: no fusion, one entry per source instruction;
 *  - level 1: runs of single-qubit gates on one target collapse into
 *    one classified 2x2 entry (PR 2 behaviour);
 *  - level 2 (default): additionally, windows of entries confined to
 *    one qubit pair collapse into a single classified two-qubit entry
 *    when a cost model says the fused entry is cheaper than its parts
 *    (H-CX-H becomes one phase mask; CX-CX vanishes).
 */

#ifndef QRA_SIM_KERNELS_PLAN_HH
#define QRA_SIM_KERNELS_PLAN_HH

#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {
namespace kernels {

/** Kernel class an entry dispatches to (see kernels.hh). */
enum class KernelKind : std::uint8_t
{
    Identity,      // no-op (fused away); never emitted by compile()
    Diagonal1q,    // q0; diag(m[0], m[3])
    AntiDiagonal1q,// q0; [[0 m[1]] [m[2] 0]]
    General1q,     // q0; m[0..3] row-major
    PauliX,        // q0
    ControlledX,   // control q0, target q1
    Controlled1q,  // control q0, target q1; m[0..3]
    PhaseOnMask,   // mask; phase
    SwapQubits,    // q0, q1
    Toffoli,       // controls q0 q1, target q2
    General2q,     // q0 (matrix bit 0), q1; dense 4x4
    GenericK,      // qubits; dense 2^k x 2^k
    Measure,       // q0 -> clbit
    ResetQ,        // q0
    PostSelectQ,   // q0 == postselectValue
    SampleKraus,   // noise hook: sample one branch of site `site`
};

/** One lowered instruction. */
struct PlanEntry
{
    KernelKind kind = KernelKind::Identity;
    Qubit q0 = 0, q1 = 0, q2 = 0;
    Clbit clbit = 0;
    int postselectValue = 0;
    /** Row-major 2x2 for the 1q kernel classes. */
    Complex m[4] = {};
    std::uint64_t mask = 0;
    Complex phase{1.0, 0.0};
    Matrix dense;
    std::vector<Qubit> qubits;

    /**
     * Noise-site cross reference, used by trajectory plans only:
     * for SampleKraus, index into TrajectoryPlan::site(); for
     * Measure, index into TrajectoryPlan::readout() (-1 = perfect).
     */
    std::int32_t site = -1;

    /** True for entries the unitary kernels execute directly. */
    bool
    isUnitary() const
    {
        return kind != KernelKind::Measure &&
               kind != KernelKind::ResetQ &&
               kind != KernelKind::PostSelectQ &&
               kind != KernelKind::SampleKraus;
    }
};

/**
 * Classify a 2x2 unitary on @p q into the cheapest kernel class
 * (Identity / Diagonal1q / AntiDiagonal1q / General1q). Structure is
 * detected within a few ULP (1e-15), so a fused product like H*H
 * collapses to Identity despite double rounding, while anything
 * meaningfully off-structure stays General1q.
 */
PlanEntry classify1q(Qubit q, Complex m00, Complex m01, Complex m10,
                     Complex m11);

/**
 * Classify a 4x4 unitary on the pair (@p q0, @p q1) — matrix bit 0 is
 * q0 — into the cheapest kernel class: Identity, PhaseOnMask (CZ-like
 * diagonal), a separable Diagonal1q, ControlledX / Controlled1q with
 * either qubit as control, SwapQubits, or General2q. @p m is row-major.
 */
PlanEntry classify2q(Qubit q0, Qubit q1, const Complex m[16]);

/**
 * Lower a single operation to its kernel entry (no fusion). Used by
 * StateVector::applyUnitary for ad-hoc gate application.
 * @throws SimulationError for Barrier (nothing to execute).
 */
PlanEntry lowerOperation(const Operation &op);

/**
 * Execute one unitary entry in place on a 2^@p num_qubits amplitude
 * array: the kernel-class dispatch shared by StateVector::applyKernel
 * and the density backend's vector view of rho.
 * @throws IndexError if an operand is outside the register.
 * @throws SimulationError for non-unitary entries.
 */
void applyEntry(Complex *amps, std::size_t num_qubits,
                const PlanEntry &entry);

/**
 * Relative execution cost of one unitary entry, in units of "one pass
 * over the amplitude array". The two-qubit window fusion only replaces
 * a window when the fused entry is strictly cheaper than the sum of
 * its parts under this model.
 */
double entryCost(const PlanEntry &entry);

/** Fusion aggressiveness (see file comment). */
constexpr int kFusionNone = 0;
constexpr int kFusion1q = 1;
constexpr int kFusion2q = 2;
constexpr int kFusionDefault = kFusion2q;

/**
 * The calling thread's fusion level for plan compiles that do not
 * specify one (default kFusionDefault). The execution engine installs
 * its configured level around backend runs via FusionScope, which is
 * how `qra_run --fusion` reaches the simulators.
 */
int currentFusionLevel();

/** RAII guard installing a fusion level on the current thread. */
class FusionScope
{
  public:
    explicit FusionScope(int level);
    ~FusionScope();

    FusionScope(const FusionScope &) = delete;
    FusionScope &operator=(const FusionScope &) = delete;

  private:
    int saved_;
};

/** Compile statistics, reported by the perf harness. */
struct PlanStats
{
    std::size_t sourceOps = 0;   // circuit instructions consumed
    std::size_t entries = 0;     // plan entries emitted
    std::size_t fusedGates = 0;  // 1q gates absorbed into a neighbour
    std::size_t fused2qWindows = 0; // pair windows collapsed by pass 2
};

/**
 * Incremental single-qubit run fuser shared by the plan compilers
 * (ExecutablePlan and the noisy TrajectoryPlan): absorb() buffers 1q
 * unitaries into one pending 2x2 per qubit; flush() classifies the
 * product and emits it (identity runs vanish).
 */
class Fusion1qBuffer
{
  public:
    explicit Fusion1qBuffer(std::size_t num_qubits);

    /** Buffer @p op if it is a fusable 1q unitary on a valid qubit. */
    bool absorb(const Operation &op);

    void flush(Qubit q, std::vector<PlanEntry> &out, PlanStats &stats);
    void flushAll(std::vector<PlanEntry> &out, PlanStats &stats);

  private:
    struct Pending
    {
        bool active = false;
        Complex m[4];
        std::size_t gates = 0;
    };
    std::vector<Pending> pending_;
};

/**
 * Pass 2: collapse windows of consecutive unitary entries confined to
 * one qubit pair into a single classified two-qubit entry, when the
 * cost model says the fused entry is cheaper than the window it
 * replaces. Non-unitary entries (and SampleKraus noise hooks) fence
 * every window they touch, so trajectory plans fuse only within
 * noise-free segments.
 */
std::vector<PlanEntry> fuse2qWindows(std::vector<PlanEntry> entries,
                                     PlanStats &stats);

/**
 * Run fuse2qWindows over the tail [fence_start, end) of @p entries in
 * place (no-op below kFusion2q) and advance @p fence_start to the new
 * end. Both plan compilers call this at every fusion fence (barriers,
 * end of circuit), so their window fencing can never diverge.
 */
void fuseSegmentTail(std::vector<PlanEntry> &entries,
                     std::size_t &fence_start, int fusion,
                     PlanStats &stats);

/** A circuit lowered to kernel dispatch entries. */
class ExecutablePlan
{
  public:
    /**
     * Lower @p circuit at fusion level @p fusion (kFusionNone /
     * kFusion1q / kFusion2q; booleans from older callers map to
     * levels 0 and 1). Negative = the thread's currentFusionLevel().
     */
    static ExecutablePlan compile(const Circuit &circuit,
                                  int fusion = -1);

    const std::vector<PlanEntry> &entries() const { return entries_; }
    const PlanStats &stats() const { return stats_; }
    std::size_t numQubits() const { return numQubits_; }

  private:
    std::vector<PlanEntry> entries_;
    PlanStats stats_;
    std::size_t numQubits_ = 0;
};

} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_PLAN_HH
