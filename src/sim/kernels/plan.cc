#include "sim/kernels/plan.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>

#include "common/error.hh"
#include "sim/kernels/kernels.hh"

namespace qra {
namespace kernels {

namespace {

constexpr Complex kZero{0.0, 0.0};
constexpr Complex kOne{1.0, 0.0};

/**
 * Structure-detection tolerance: double rounding in fused products
 * (e.g. H*H) leaves residuals of a few ULP, far below any physical
 * amplitude. Entries this close to 0/1 are treated as structural.
 */
constexpr double kSnapTol = 1e-15;

bool
nearZero(Complex v)
{
    return std::abs(v.real()) <= kSnapTol &&
           std::abs(v.imag()) <= kSnapTol;
}

bool
nearOne(Complex v)
{
    return std::abs(v.real() - 1.0) <= kSnapTol &&
           std::abs(v.imag()) <= kSnapTol;
}

bool
nearEqual(Complex a, Complex b)
{
    return std::abs(a.real() - b.real()) <= kSnapTol &&
           std::abs(a.imag() - b.imag()) <= kSnapTol;
}

/** 2x2 matrix product a * b, row-major arrays. */
void
multiply2x2(const Complex a[4], const Complex b[4], Complex out[4])
{
    out[0] = a[0] * b[0] + a[1] * b[2];
    out[1] = a[0] * b[1] + a[1] * b[3];
    out[2] = a[2] * b[0] + a[3] * b[2];
    out[3] = a[2] * b[1] + a[3] * b[3];
}

thread_local int tls_fusion_level = kFusionDefault;

} // namespace

int
currentFusionLevel()
{
    return tls_fusion_level;
}

FusionScope::FusionScope(int level) : saved_(tls_fusion_level)
{
    tls_fusion_level = level;
}

FusionScope::~FusionScope()
{
    tls_fusion_level = saved_;
}

PlanEntry
classify1q(Qubit q, Complex m00, Complex m01, Complex m10, Complex m11)
{
    PlanEntry entry;
    entry.q0 = q;
    entry.m[0] = m00;
    entry.m[1] = m01;
    entry.m[2] = m10;
    entry.m[3] = m11;
    if (nearZero(m01) && nearZero(m10)) {
        entry.kind = (nearOne(m00) && nearOne(m11))
                         ? KernelKind::Identity
                         : KernelKind::Diagonal1q;
        entry.m[3] = m11; // diag(m[0], m[3])
        return entry;
    }
    if (nearZero(m00) && nearZero(m11)) {
        entry.kind = (nearOne(m01) && nearOne(m10))
                         ? KernelKind::PauliX
                         : KernelKind::AntiDiagonal1q;
        return entry;
    }
    entry.kind = KernelKind::General1q;
    return entry;
}

namespace {

/**
 * Single-bit mask for a mask-kernel operand. Guarded here because the
 * shift happens before StateVector's numQubits check can run; a
 * wrapped shift would silently target the wrong qubit.
 */
std::uint64_t
qubitMask(Qubit q)
{
    if (q >= 64)
        throw IndexError("qubit index " + std::to_string(q) +
                         " out of range");
    return std::uint64_t{1} << q;
}

/** Build a Controlled1q/ControlledX entry from the target 2x2. */
PlanEntry
makeControlled(Qubit control, Qubit target, Complex t00, Complex t01,
               Complex t10, Complex t11)
{
    PlanEntry entry;
    entry.q0 = control;
    entry.q1 = target;
    entry.m[0] = t00;
    entry.m[1] = t01;
    entry.m[2] = t10;
    entry.m[3] = t11;
    entry.kind = (nearZero(t00) && nearZero(t11) && nearOne(t01) &&
                  nearOne(t10))
                     ? KernelKind::ControlledX
                     : KernelKind::Controlled1q;
    return entry;
}

} // namespace

namespace {

/** Swap a Diagonal1q with unit d0 for the cheaper phase mask. */
PlanEntry
cheapen1q(PlanEntry entry)
{
    if (entry.kind == KernelKind::Diagonal1q && nearOne(entry.m[0])) {
        PlanEntry phase;
        phase.kind = KernelKind::PhaseOnMask;
        phase.mask = qubitMask(entry.q0);
        phase.phase = entry.m[3];
        return phase;
    }
    return entry;
}

} // namespace

PlanEntry
classify2q(Qubit q0, Qubit q1, const Complex m[16])
{
    // Index layout: basis state bit 0 = q0, bit 1 = q1; m is row-major
    // (m[4*row + col]).
    const std::uint64_t b0 = qubitMask(q0);
    const std::uint64_t b1 = qubitMask(q1);
    const auto sub = [&](int r, int c) { return m[4 * r + c]; };

    // Acts only on q0 (m = I ⊗ A): entries coupling different q1
    // values vanish and both q1 blocks agree.
    const bool only_q0 =
        nearZero(sub(0, 2)) && nearZero(sub(0, 3)) &&
        nearZero(sub(1, 2)) && nearZero(sub(1, 3)) &&
        nearZero(sub(2, 0)) && nearZero(sub(2, 1)) &&
        nearZero(sub(3, 0)) && nearZero(sub(3, 1)) &&
        nearEqual(sub(0, 0), sub(2, 2)) &&
        nearEqual(sub(0, 1), sub(2, 3)) &&
        nearEqual(sub(1, 0), sub(3, 2)) &&
        nearEqual(sub(1, 1), sub(3, 3));
    if (only_q0)
        return cheapen1q(classify1q(q0, sub(0, 0), sub(0, 1),
                                    sub(1, 0), sub(1, 1)));

    // Acts only on q1 (m = B ⊗ I).
    const bool only_q1 =
        nearZero(sub(0, 1)) && nearZero(sub(0, 3)) &&
        nearZero(sub(1, 0)) && nearZero(sub(1, 2)) &&
        nearZero(sub(2, 1)) && nearZero(sub(2, 3)) &&
        nearZero(sub(3, 0)) && nearZero(sub(3, 2)) &&
        nearEqual(sub(0, 0), sub(1, 1)) &&
        nearEqual(sub(0, 2), sub(1, 3)) &&
        nearEqual(sub(2, 0), sub(3, 1)) &&
        nearEqual(sub(2, 2), sub(3, 3));
    if (only_q1)
        return cheapen1q(classify1q(q1, sub(0, 0), sub(0, 2),
                                    sub(2, 0), sub(2, 2)));

    bool diagonal = true;
    for (int r = 0; r < 4 && diagonal; ++r)
        for (int c = 0; c < 4 && diagonal; ++c)
            if (r != c && !nearZero(m[4 * r + c]))
                diagonal = false;

    if (diagonal) {
        const Complex d0 = m[0], d1 = m[5], d2 = m[10], d3 = m[15];
        PlanEntry entry;
        if (nearOne(d0) && nearOne(d1) && nearOne(d2) && nearOne(d3)) {
            entry.kind = KernelKind::Identity;
            entry.q0 = q0;
            return entry;
        }
        if (nearOne(d0) && nearOne(d2) && nearEqual(d1, d3)) {
            // diag(1, p, 1, p): pure phase on q0 == 1.
            entry.kind = KernelKind::PhaseOnMask;
            entry.mask = b0;
            entry.phase = d1;
            return entry;
        }
        if (nearOne(d0) && nearOne(d1) && nearEqual(d2, d3)) {
            entry.kind = KernelKind::PhaseOnMask;
            entry.mask = b1;
            entry.phase = d2;
            return entry;
        }
        if (nearOne(d0) && nearOne(d1) && nearOne(d2)) {
            // diag(1, 1, 1, p): the CZ family.
            entry.kind = KernelKind::PhaseOnMask;
            entry.mask = b0 | b1;
            entry.phase = d3;
            return entry;
        }
        if (nearOne(d0) && nearOne(d2))
            return makeControlled(q0, q1, d1, kZero, kZero, d3);
        if (nearOne(d0) && nearOne(d1))
            return makeControlled(q1, q0, d2, kZero, kZero, d3);
        // General non-separable diagonal: no dedicated kernel; fall
        // through to the dense entry and let the cost model decide.
    } else {
        // Controlled on q0: identity on the q0 = 0 subspace {0, 2}.
        if (nearOne(m[0]) && nearOne(m[10]) && nearZero(m[2]) &&
            nearZero(m[8]) && nearZero(m[1]) && nearZero(m[3]) &&
            nearZero(m[9]) && nearZero(m[11]) && nearZero(m[4]) &&
            nearZero(m[6]) && nearZero(m[12]) && nearZero(m[14]))
            return makeControlled(q0, q1, m[5], m[7], m[13], m[15]);
        // Controlled on q1: identity on the q1 = 0 subspace {0, 1}.
        if (nearOne(m[0]) && nearOne(m[5]) && nearZero(m[1]) &&
            nearZero(m[4]) && nearZero(m[2]) && nearZero(m[3]) &&
            nearZero(m[6]) && nearZero(m[7]) && nearZero(m[8]) &&
            nearZero(m[9]) && nearZero(m[12]) && nearZero(m[13]))
            return makeControlled(q1, q0, m[10], m[11], m[14], m[15]);
        // Swap permutation: |01> <-> |10>.
        bool is_swap = nearOne(m[0]) && nearOne(m[9]) &&
                       nearOne(m[6]) && nearOne(m[15]);
        for (int r = 0; r < 4 && is_swap; ++r)
            for (int c = 0; c < 4 && is_swap; ++c) {
                const bool structural =
                    (r == 0 && c == 0) || (r == 2 && c == 1) ||
                    (r == 1 && c == 2) || (r == 3 && c == 3);
                if (!structural && !nearZero(m[4 * r + c]))
                    is_swap = false;
            }
        if (is_swap) {
            PlanEntry entry;
            entry.kind = KernelKind::SwapQubits;
            entry.q0 = q0;
            entry.q1 = q1;
            return entry;
        }
    }

    PlanEntry entry;
    entry.kind = KernelKind::General2q;
    entry.q0 = q0;
    entry.q1 = q1;
    entry.dense = Matrix::zeros(4, 4);
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            entry.dense(r, c) = m[4 * r + c];
    return entry;
}

PlanEntry
lowerOperation(const Operation &op)
{
    PlanEntry entry;
    switch (op.kind) {
      case OpKind::Barrier:
        throw SimulationError("barrier has no kernel lowering");
      case OpKind::Measure:
        entry.kind = KernelKind::Measure;
        entry.q0 = op.qubits[0];
        if (op.clbit)
            entry.clbit = *op.clbit;
        return entry;
      case OpKind::Reset:
        entry.kind = KernelKind::ResetQ;
        entry.q0 = op.qubits[0];
        return entry;
      case OpKind::PostSelect:
        entry.kind = KernelKind::PostSelectQ;
        entry.q0 = op.qubits[0];
        entry.postselectValue = op.postselectValue;
        return entry;
      case OpKind::I:
        entry.kind = KernelKind::Identity;
        entry.q0 = op.qubits[0];
        return entry;
      case OpKind::X:
        entry.kind = KernelKind::PauliX;
        entry.q0 = op.qubits[0];
        return entry;
      case OpKind::Z:
        entry.kind = KernelKind::PhaseOnMask;
        entry.mask = qubitMask(op.qubits[0]);
        entry.phase = Complex{-1.0, 0.0};
        return entry;
      case OpKind::CX:
        entry.kind = KernelKind::ControlledX;
        entry.q0 = op.qubits[0];
        entry.q1 = op.qubits[1];
        return entry;
      case OpKind::CZ:
        entry.kind = KernelKind::PhaseOnMask;
        entry.mask = qubitMask(op.qubits[0]) | qubitMask(op.qubits[1]);
        entry.phase = Complex{-1.0, 0.0};
        return entry;
      case OpKind::Swap:
        entry.kind = KernelKind::SwapQubits;
        entry.q0 = op.qubits[0];
        entry.q1 = op.qubits[1];
        return entry;
      case OpKind::CCX:
        entry.kind = KernelKind::Toffoli;
        entry.q0 = op.qubits[0];
        entry.q1 = op.qubits[1];
        entry.q2 = op.qubits[2];
        return entry;
      case OpKind::CY:
      {
        entry.kind = KernelKind::Controlled1q;
        entry.q0 = op.qubits[0];
        entry.q1 = op.qubits[1];
        entry.m[0] = kZero;
        entry.m[1] = Complex{0.0, -1.0};
        entry.m[2] = Complex{0.0, 1.0};
        entry.m[3] = kZero;
        return entry;
      }
      default:
        break;
    }

    if (!opIsUnitary(op.kind))
        throw SimulationError(std::string("cannot lower '") +
                              opName(op.kind) + "' to a kernel");
    const Matrix u = op.matrix();
    if (op.qubits.size() == 1)
        return classify1q(op.qubits[0], u(0, 0), u(0, 1), u(1, 0),
                          u(1, 1));
    if (op.qubits.size() == 2) {
        entry.kind = KernelKind::General2q;
        entry.q0 = op.qubits[0];
        entry.q1 = op.qubits[1];
        entry.dense = u;
        return entry;
    }
    entry.kind = KernelKind::GenericK;
    entry.qubits = op.qubits;
    entry.dense = u;
    return entry;
}

void
applyEntry(Complex *amps, std::size_t num_qubits, const PlanEntry &entry)
{
    const auto checkQubit = [num_qubits](Qubit q) {
        if (q >= num_qubits)
            throw IndexError("qubit index " + std::to_string(q) +
                             " out of range");
    };
    const std::uint64_t n = std::uint64_t{1} << num_qubits;
    switch (entry.kind) {
      case KernelKind::Identity:
        checkQubit(entry.q0);
        return;
      case KernelKind::Diagonal1q:
        checkQubit(entry.q0);
        applyDiagonal1q(amps, n, entry.q0, entry.m[0],
                        entry.m[3]);
        return;
      case KernelKind::AntiDiagonal1q:
        checkQubit(entry.q0);
        applyAntiDiagonal1q(amps, n, entry.q0, entry.m[1],
                            entry.m[2]);
        return;
      case KernelKind::General1q:
        checkQubit(entry.q0);
        applyGeneral1q(amps, n, entry.q0, entry.m[0],
                       entry.m[1], entry.m[2], entry.m[3]);
        return;
      case KernelKind::PauliX:
        checkQubit(entry.q0);
        applyX(amps, n, entry.q0);
        return;
      case KernelKind::ControlledX:
        checkQubit(entry.q0);
        checkQubit(entry.q1);
        applyCX(amps, n, entry.q0, entry.q1);
        return;
      case KernelKind::Controlled1q:
        checkQubit(entry.q0);
        checkQubit(entry.q1);
        applyControlled1q(amps, n, entry.q0, entry.q1,
                          entry.m[0], entry.m[1], entry.m[2],
                          entry.m[3]);
        return;
      case KernelKind::PhaseOnMask:
        if (entry.mask >> num_qubits)
            throw IndexError("phase mask addresses a qubit out of "
                             "range");
        applyPhaseOnMask(amps, n, entry.mask, entry.phase);
        return;
      case KernelKind::SwapQubits:
        checkQubit(entry.q0);
        checkQubit(entry.q1);
        applySwap(amps, n, entry.q0, entry.q1);
        return;
      case KernelKind::Toffoli:
        checkQubit(entry.q0);
        checkQubit(entry.q1);
        checkQubit(entry.q2);
        applyCCX(amps, n, entry.q0, entry.q1, entry.q2);
        return;
      case KernelKind::General2q:
        checkQubit(entry.q0);
        checkQubit(entry.q1);
        applyGeneral2q(amps, n, entry.q0, entry.q1, entry.dense);
        return;
      case KernelKind::GenericK:
        for (Qubit q : entry.qubits)
            checkQubit(q);
        applyGenericK(amps, n, entry.dense, entry.qubits);
        return;
      case KernelKind::Measure:
      case KernelKind::ResetQ:
      case KernelKind::PostSelectQ:
      case KernelKind::SampleKraus:
        break;
    }
    throw SimulationError("applyKernel on a non-unitary plan entry");
}

double
entryCost(const PlanEntry &entry)
{
    // Units: one full pass over the amplitude array with one multiply
    // per element costs 1.0. Permutations count their moves; compact
    // subspaces count their fraction of the array.
    switch (entry.kind) {
      case KernelKind::Identity:
        return 0.0;
      case KernelKind::Diagonal1q:
      case KernelKind::PauliX:
        return 1.0;
      case KernelKind::AntiDiagonal1q:
        return 1.5;
      case KernelKind::General1q:
        return 2.0;
      case KernelKind::PhaseOnMask:
      {
        const int bits = std::popcount(entry.mask);
        return bits >= 6 ? 0.05 : 2.0 / static_cast<double>(2 << bits);
      }
      case KernelKind::ControlledX:
      case KernelKind::SwapQubits:
        return 0.5;
      case KernelKind::Controlled1q:
        return 1.0;
      case KernelKind::Toffoli:
        return 0.25;
      case KernelKind::General2q:
        return 4.0;
      case KernelKind::GenericK:
        return 2.0 * static_cast<double>(std::size_t{1}
                                         << entry.qubits.size());
      case KernelKind::Measure:
      case KernelKind::ResetQ:
      case KernelKind::PostSelectQ:
      case KernelKind::SampleKraus:
        break;
    }
    return 1e18; // non-unitary: never a fusion candidate
}

Fusion1qBuffer::Fusion1qBuffer(std::size_t num_qubits)
    : pending_(num_qubits)
{
}

bool
Fusion1qBuffer::absorb(const Operation &op)
{
    if (!opIsUnitary(op.kind) || op.qubits.size() != 1)
        return false;
    const Qubit q = op.qubits[0];
    if (q >= pending_.size())
        return false;
    Pending &p = pending_[q];
    if (!p.active) {
        p.active = true;
        p.m[0] = kOne;
        p.m[1] = kZero;
        p.m[2] = kZero;
        p.m[3] = kOne;
        p.gates = 0;
    }
    const Matrix u = op.matrix();
    const Complex g[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
    Complex fused[4];
    multiply2x2(g, p.m, fused);
    for (int i = 0; i < 4; ++i)
        p.m[i] = fused[i];
    ++p.gates;
    return true;
}

void
Fusion1qBuffer::flush(Qubit q, std::vector<PlanEntry> &out,
                      PlanStats &stats)
{
    if (q >= pending_.size() || !pending_[q].active)
        return;
    Pending &p = pending_[q];
    PlanEntry entry = classify1q(q, p.m[0], p.m[1], p.m[2], p.m[3]);
    if (entry.kind == KernelKind::Identity) {
        // The whole run cancelled (e.g. H H); emit nothing.
        stats.fusedGates += p.gates;
    } else {
        stats.fusedGates += p.gates - 1;
        out.push_back(std::move(entry));
    }
    p.active = false;
}

void
Fusion1qBuffer::flushAll(std::vector<PlanEntry> &out, PlanStats &stats)
{
    for (Qubit q = 0; q < pending_.size(); ++q)
        flush(q, out, stats);
}

namespace {

/** Operand qubits of a unitary entry (mask bits for PhaseOnMask). */
void
entryQubits(const PlanEntry &entry, std::vector<Qubit> &out)
{
    out.clear();
    switch (entry.kind) {
      case KernelKind::Diagonal1q:
      case KernelKind::AntiDiagonal1q:
      case KernelKind::General1q:
      case KernelKind::PauliX:
        out.push_back(entry.q0);
        return;
      case KernelKind::ControlledX:
      case KernelKind::Controlled1q:
      case KernelKind::SwapQubits:
      case KernelKind::General2q:
        out.push_back(entry.q0);
        out.push_back(entry.q1);
        return;
      case KernelKind::Toffoli:
        out.push_back(entry.q0);
        out.push_back(entry.q1);
        out.push_back(entry.q2);
        return;
      case KernelKind::PhaseOnMask:
        for (std::uint64_t rest = entry.mask; rest != 0;
             rest &= rest - 1)
            out.push_back(
                static_cast<Qubit>(std::countr_zero(rest)));
        return;
      case KernelKind::GenericK:
        out = entry.qubits;
        return;
      default:
        return;
    }
}

bool
isWindow1q(const PlanEntry &entry)
{
    switch (entry.kind) {
      case KernelKind::Diagonal1q:
      case KernelKind::AntiDiagonal1q:
      case KernelKind::General1q:
      case KernelKind::PauliX:
        return true;
      case KernelKind::PhaseOnMask:
        return std::popcount(entry.mask) == 1;
      default:
        return false;
    }
}

bool
isWindow2q(const PlanEntry &entry)
{
    switch (entry.kind) {
      case KernelKind::ControlledX:
      case KernelKind::Controlled1q:
      case KernelKind::SwapQubits:
      case KernelKind::General2q:
        return true;
      case KernelKind::PhaseOnMask:
        return std::popcount(entry.mask) == 2;
      default:
        return false;
    }
}

/**
 * Apply @p entry to a 4-amplitude pair subspace, with pair qubit
 * @p a mapped to local bit 0 and @p b to local bit 1. Reuses the
 * production kernels on the tiny array, so window accumulation is
 * exactly as correct as execution itself.
 */
void
applyEntryTo4(Complex amps[4], const PlanEntry &entry, Qubit a, Qubit b)
{
    const auto local = [&](Qubit q) -> Qubit { return q == a ? 0 : 1; };
    switch (entry.kind) {
      case KernelKind::Diagonal1q:
        applyDiagonal1q(amps, 4, local(entry.q0), entry.m[0],
                        entry.m[3]);
        return;
      case KernelKind::AntiDiagonal1q:
        applyAntiDiagonal1q(amps, 4, local(entry.q0), entry.m[1],
                            entry.m[2]);
        return;
      case KernelKind::General1q:
        applyGeneral1q(amps, 4, local(entry.q0), entry.m[0],
                       entry.m[1], entry.m[2], entry.m[3]);
        return;
      case KernelKind::PauliX:
        applyX(amps, 4, local(entry.q0));
        return;
      case KernelKind::PhaseOnMask:
      {
        const std::uint64_t lmask =
            ((entry.mask >> a) & 1) | (((entry.mask >> b) & 1) << 1);
        applyPhaseOnMask(amps, 4, lmask, entry.phase);
        return;
      }
      case KernelKind::ControlledX:
        applyCX(amps, 4, local(entry.q0), local(entry.q1));
        return;
      case KernelKind::Controlled1q:
        applyControlled1q(amps, 4, local(entry.q0), local(entry.q1),
                          entry.m[0], entry.m[1], entry.m[2],
                          entry.m[3]);
        return;
      case KernelKind::SwapQubits:
        applySwap(amps, 4, local(entry.q0), local(entry.q1));
        return;
      case KernelKind::General2q:
        applyGeneral2q(amps, 4, local(entry.q0), local(entry.q1),
                       entry.dense);
        return;
      default:
        throw SimulationError("entry kind has no pair-window action");
    }
}

/** An open fusion window over one qubit pair. */
struct PairWindow
{
    bool open = false;
    Qubit a = 0, b = 0; // a < b; a is matrix bit 0
    Complex m[16];      // accumulated product, row-major
    std::vector<PlanEntry> members;
    double cost = 0.0;

    void
    start(Qubit qa, Qubit qb)
    {
        open = true;
        a = qa;
        b = qb;
        for (int i = 0; i < 16; ++i)
            m[i] = (i % 5 == 0) ? kOne : kZero;
        members.clear();
        cost = 0.0;
    }

    void
    absorb(PlanEntry entry)
    {
        // Multiply the entry into each accumulated column: columns
        // are images of basis states, so applying the entry to them
        // left-composes it onto the window product.
        for (int c = 0; c < 4; ++c) {
            Complex column[4];
            for (int r = 0; r < 4; ++r)
                column[r] = m[4 * r + c];
            applyEntryTo4(column, entry, a, b);
            for (int r = 0; r < 4; ++r)
                m[4 * r + c] = column[r];
        }
        cost += entryCost(entry);
        members.push_back(std::move(entry));
    }
};

} // namespace

std::vector<PlanEntry>
fuse2qWindows(std::vector<PlanEntry> entries, PlanStats &stats)
{
    std::vector<PlanEntry> out;
    out.reserve(entries.size());

    PairWindow window;
    // Deferred single-qubit entries, each waiting to join a pair
    // window seeded by a later two-qubit entry on its qubit.
    std::map<Qubit, PlanEntry> held;

    auto flush_held = [&](Qubit q) {
        const auto it = held.find(q);
        if (it == held.end())
            return;
        out.push_back(std::move(it->second));
        held.erase(it);
    };
    auto flush_all_held = [&]() {
        for (auto &[q, entry] : held)
            out.push_back(std::move(entry));
        held.clear();
    };
    auto flush_window = [&]() {
        if (!window.open)
            return;
        window.open = false;
        if (window.members.size() < 2) {
            for (PlanEntry &entry : window.members)
                out.push_back(std::move(entry));
            return;
        }
        PlanEntry fused = classify2q(window.a, window.b, window.m);
        if (entryCost(fused) < window.cost) {
            ++stats.fused2qWindows;
            if (fused.kind != KernelKind::Identity)
                out.push_back(std::move(fused));
            return;
        }
        // Not worth it under the cost model: keep the originals.
        for (PlanEntry &entry : window.members)
            out.push_back(std::move(entry));
    };

    std::vector<Qubit> qs;
    for (PlanEntry &entry : entries) {
        if (entry.isUnitary() && isWindow2q(entry)) {
            entryQubits(entry, qs);
            const Qubit lo = std::min(qs[0], qs[1]);
            const Qubit hi = std::max(qs[0], qs[1]);
            if (!(window.open && window.a == lo && window.b == hi)) {
                flush_window();
                window.start(lo, hi);
                // Earlier 1q entries on the pair join at the front.
                for (const Qubit q : {lo, hi}) {
                    const auto it = held.find(q);
                    if (it != held.end()) {
                        window.absorb(std::move(it->second));
                        held.erase(it);
                    }
                }
            }
            window.absorb(std::move(entry));
            continue;
        }
        if (entry.isUnitary() && isWindow1q(entry)) {
            entryQubits(entry, qs);
            const Qubit q = qs[0];
            if (window.open && (q == window.a || q == window.b)) {
                window.absorb(std::move(entry));
                continue;
            }
            flush_held(q); // collisions are impossible after pass 1,
                           // but emit-then-hold keeps order anyway
            held.emplace(q, std::move(entry));
            continue;
        }
        if (entry.isUnitary()) {
            // Toffoli / GenericK / wide phase masks: fence whatever
            // they touch, pass through otherwise.
            entryQubits(entry, qs);
            bool touches_window = false;
            for (const Qubit q : qs) {
                flush_held(q);
                touches_window = touches_window ||
                                 (window.open &&
                                  (q == window.a || q == window.b));
            }
            if (touches_window)
                flush_window();
            out.push_back(std::move(entry));
            continue;
        }
        // Non-unitary (Measure / Reset / PostSelect / SampleKraus):
        // full fence — mid-circuit semantics must not move.
        flush_window();
        flush_all_held();
        out.push_back(std::move(entry));
    }
    flush_window();
    flush_all_held();
    return out;
}

void
fuseSegmentTail(std::vector<PlanEntry> &entries,
                std::size_t &fence_start, int fusion, PlanStats &stats)
{
    if (fusion < kFusion2q || fence_start >= entries.size()) {
        fence_start = entries.size();
        return;
    }
    std::vector<PlanEntry> segment(
        std::make_move_iterator(entries.begin() + fence_start),
        std::make_move_iterator(entries.end()));
    entries.resize(fence_start);
    segment = fuse2qWindows(std::move(segment), stats);
    for (PlanEntry &entry : segment)
        entries.push_back(std::move(entry));
    fence_start = entries.size();
}

ExecutablePlan
ExecutablePlan::compile(const Circuit &circuit, int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    ExecutablePlan plan;
    plan.numQubits_ = circuit.numQubits();
    Fusion1qBuffer buffer(circuit.numQubits());

    // Pass-2 windows must not cross barriers either; fuse the segment
    // accumulated since the previous fence whenever one closes.
    std::size_t fence_start = 0;

    for (const Operation &op : circuit.ops()) {
        ++plan.stats_.sourceOps;
        if (op.kind == OpKind::Barrier) {
            // Fusion fence: respect the author's scheduling intent.
            buffer.flushAll(plan.entries_, plan.stats_);
            fuseSegmentTail(plan.entries_, fence_start, fusion,
                            plan.stats_);
            continue;
        }
        if (op.kind == OpKind::I)
            continue;

        if (fusion >= kFusion1q && buffer.absorb(op))
            continue;

        // Any other instruction: flush pending work on its operands,
        // then emit the lowered entry.
        for (Qubit q : op.qubits)
            buffer.flush(q, plan.entries_, plan.stats_);
        PlanEntry entry = lowerOperation(op);
        if (entry.kind != KernelKind::Identity)
            plan.entries_.push_back(std::move(entry));
    }
    buffer.flushAll(plan.entries_, plan.stats_);
    fuseSegmentTail(plan.entries_, fence_start, fusion, plan.stats_);

    plan.stats_.entries = plan.entries_.size();
    return plan;
}

} // namespace kernels
} // namespace qra
