#include "sim/kernels/noise_plan.hh"

#include <algorithm>
#include <cmath>

#include "circuit/schedule.hh"
#include "common/error.hh"
#include "noise/kraus.hh"

namespace qra {
namespace kernels {

namespace {

/** Scaled-unitary detection tolerance (channels are validated CPTP). */
constexpr double kScaledUnitaryTol = 1e-10;

/**
 * If @p k is a scaled unitary (K^dagger K = lambda I), return lambda;
 * otherwise a negative value.
 */
double
scaledUnitaryWeight(const Matrix &k)
{
    const Matrix gram = k.adjoint() * k;
    const Complex lambda = gram(0, 0);
    if (std::abs(lambda.imag()) > kScaledUnitaryTol ||
        lambda.real() <= 0.0)
        return -1.0;
    for (std::size_t r = 0; r < gram.rows(); ++r)
        for (std::size_t c = 0; c < gram.cols(); ++c) {
            const Complex want =
                r == c ? lambda : Complex{0.0, 0.0};
            if (std::abs(gram(r, c) - want) > kScaledUnitaryTol)
                return -1.0;
        }
    return lambda.real();
}

/**
 * Try to factor the 4x4 @p u (matrix bit 0 = first operand) as
 * A ⊗ B with A on bit 1 and B on bit 0. On success fills the
 * row-major 2x2 factors, balanced so B has unit Frobenius scale.
 */
bool
tensorSplit2q(const Matrix &u, Complex a[4], Complex b[4])
{
    // Realignment: R[2*r1+c1][2*r0+c0] = u(2*r1+r0, 2*c1+c0) is an
    // outer product exactly when u is a tensor product.
    Complex r_mat[4][4];
    for (int r1 = 0; r1 < 2; ++r1)
        for (int r0 = 0; r0 < 2; ++r0)
            for (int c1 = 0; c1 < 2; ++c1)
                for (int c0 = 0; c0 < 2; ++c0)
                    r_mat[2 * r1 + c1][2 * r0 + c0] =
                        u(2 * r1 + r0, 2 * c1 + c0);

    int pi = 0, pj = 0;
    double best = 0.0;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            if (std::abs(r_mat[i][j]) > best) {
                best = std::abs(r_mat[i][j]);
                pi = i;
                pj = j;
            }
    if (best < 1e-12)
        return false;

    Complex av[4], bv[4];
    for (int i = 0; i < 4; ++i)
        av[i] = r_mat[i][pj];
    for (int j = 0; j < 4; ++j)
        bv[j] = r_mat[pi][j] / r_mat[pi][pj];
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            if (std::abs(r_mat[i][j] - av[i] * bv[j]) > 1e-10)
                return false;

    // Balance the factors: a unitary 2x2 has Frobenius norm sqrt(2).
    double norm_b = 0.0;
    for (int j = 0; j < 4; ++j)
        norm_b += std::norm(bv[j]);
    const double scale = std::sqrt(norm_b / 2.0);
    if (scale < 1e-12)
        return false;
    for (int i = 0; i < 4; ++i) {
        a[i] = av[i] * scale;
        b[i] = bv[i] / scale;
    }
    return true;
}

/** Lower a unitary matrix on @p qubits to classified entries. */
std::vector<PlanEntry>
lowerUnitaryMatrix(const Matrix &u, const Operands &qubits)
{
    std::vector<PlanEntry> entries;
    auto push = [&](PlanEntry entry) {
        if (entry.kind != KernelKind::Identity)
            entries.push_back(std::move(entry));
    };
    if (qubits.size() == 1) {
        push(classify1q(qubits[0], u(0, 0), u(0, 1), u(1, 0),
                        u(1, 1)));
        return entries;
    }
    if (qubits.size() == 2) {
        // Tensor products (the nine genuine two-qubit Pauli branches
        // of a depolarising channel) split into two cheap 1q kernels.
        Complex a[4], b[4];
        if (tensorSplit2q(u, a, b)) {
            push(classify1q(qubits[0], b[0], b[1], b[2], b[3]));
            push(classify1q(qubits[1], a[0], a[1], a[2], a[3]));
            return entries;
        }
        Complex m[16];
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                m[4 * r + c] = u(r, c);
        push(classify2q(qubits[0], qubits[1], m));
        return entries;
    }
    PlanEntry entry;
    entry.kind = KernelKind::GenericK;
    entry.qubits.assign(qubits.begin(), qubits.end());
    entry.dense = u;
    entries.push_back(std::move(entry));
    return entries;
}

} // namespace

Kraus1q::Kraus1q(const Matrix &k)
    : m{k(0, 0), k(0, 1), k(1, 0), k(1, 1)},
      kind(k.isDiagonal(0.0) ? KernelKind::Diagonal1q
                             : KernelKind::General1q)
{
    const Matrix gram = k.adjoint() * k;
    g00 = gram(0, 0).real();
    g11 = gram(1, 1).real();
    g01 = gram(0, 1);
}

double
Kraus1q::weight(const QubitDensity &rho) const
{
    const double w = g00 * rho.r00 + g11 * rho.r11 +
                     2.0 * (g01.real() * rho.c01.real() -
                            g01.imag() * rho.c01.imag());
    return std::max(0.0, w);
}

namespace {

/**
 * Build the site for one applied channel. An exactly-zero operator
 * (the identity of a p = 1 depolarising channel) carries no weight,
 * so it neither blocks nor joins the fixed-weight branches:
 * sampleDiscrete maps every draw past a zero weight to the same
 * surviving branch.
 */
KrausSite
makeSite(const KrausChannel &channel, const Operands &qubits)
{
    KrausSite site;
    site.qubits.assign(qubits.begin(), qubits.end());

    const std::vector<Matrix> &ops = channel.operators();
    site.fixedWeights = true;
    for (const Matrix &k : ops) {
        if (std::ranges::all_of(k.data(), [](const Complex &z) {
                return z == Complex{0.0, 0.0};
            }))
            continue;
        const double lambda = scaledUnitaryWeight(k);
        if (lambda < 0.0) {
            site.fixedWeights = false;
            break;
        }
        site.weights.push_back(lambda);
        site.branches.push_back(lowerUnitaryMatrix(
            k * Complex{1.0 / std::sqrt(lambda), 0.0}, qubits));
    }
    if (site.fixedWeights)
        return site;
    if (qubits.size() != 1)
        throw SimulationError("trajectory plan: a multi-qubit Kraus "
                              "channel must mix scaled unitaries");
    site.weights.clear();
    site.branches.clear();
    for (const Matrix &k : ops)
        site.ops1q.emplace_back(k);
    return site;
}

} // namespace

TrajectoryPlan
TrajectoryPlan::compile(const Circuit &circuit, const NoiseModel *noise,
                        int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    const bool noisy = noise != nullptr && noise->enabled();

    TrajectoryPlan plan;
    plan.numQubits_ = circuit.numQubits();
    Fusion1qBuffer buffer(circuit.numQubits());

    auto emit_site = [&](const KrausChannel &channel,
                         const Operands &qubits) {
        if (channel.operators().size() == 1) {
            // Deterministic channel: the single operator is unitary
            // (CPTP), so it lowers to a plain entry with no RNG draw.
            for (const Qubit q : qubits)
                buffer.flush(q, plan.entries_, plan.stats_);
            for (PlanEntry &entry :
                 lowerUnitaryMatrix(channel.operators()[0], qubits))
                plan.entries_.push_back(std::move(entry));
            return;
        }
        // Every other channel draws one uniform per shot, even if
        // only one operator survives makeSite's zero filter.
        for (const Qubit q : qubits)
            buffer.flush(q, plan.entries_, plan.stats_);
        PlanEntry entry;
        entry.kind = KernelKind::SampleKraus;
        entry.site = static_cast<std::int32_t>(plan.sites_.size());
        plan.entries_.push_back(std::move(entry));
        plan.sites_.push_back(makeSite(channel, qubits));
    };

    // The schedule depends only on the circuit and noise model, so
    // the plan bakes it in once per job.
    auto duration = [&](const Operation &op) {
        return noisy ? noise->opDuration(op) : 0.0;
    };
    const std::vector<TimedMoment> moments =
        computeTimedMoments(circuit, duration);

    // Barriers fence fusion here exactly as in the ideal plan, even
    // though the moment schedule drops them: every op carries its
    // program-order barrier epoch, and an epoch change in the moment
    // walk flushes the 1q buffer and closes the 2q fusion segment.
    std::vector<std::size_t> op_epoch(circuit.size(), 0);
    {
        std::size_t barriers = 0;
        for (std::size_t i = 0; i < circuit.size(); ++i) {
            op_epoch[i] = barriers;
            if (circuit.ops()[i].kind == OpKind::Barrier)
                ++barriers;
        }
    }
    std::size_t current_epoch = 0;
    std::size_t fence_start = 0;

    for (const TimedMoment &moment : moments) {
        for (const std::size_t idx : moment.opIndices) {
            const Operation &op = circuit.ops()[idx];
            ++plan.stats_.sourceOps;
            if (op_epoch[idx] != current_epoch) {
                buffer.flushAll(plan.entries_, plan.stats_);
                fuseSegmentTail(plan.entries_, fence_start, fusion,
                                plan.stats_);
                current_epoch = op_epoch[idx];
            }
            switch (op.kind) {
              case OpKind::Measure:
              {
                buffer.flush(op.qubits[0], plan.entries_, plan.stats_);
                PlanEntry entry = lowerOperation(op);
                if (noisy) {
                    const ReadoutError *ro =
                        noise->readoutFor(op.qubits[0]);
                    if (ro != nullptr) {
                        entry.site = static_cast<std::int32_t>(
                            plan.readouts_.size());
                        plan.readouts_.push_back(*ro);
                    }
                }
                plan.entries_.push_back(std::move(entry));
                continue;
              }
              case OpKind::Reset:
              case OpKind::PostSelect:
                buffer.flush(op.qubits[0], plan.entries_, plan.stats_);
                plan.entries_.push_back(lowerOperation(op));
                continue;
              case OpKind::I:
                continue;
              default:
                break;
            }

            // Unitary instruction. Gates that inject no noise fuse
            // like the ideal plan; noisy gates are fenced by their
            // channel sites.
            std::vector<NoiseModel::AppliedChannel> channels;
            if (noisy)
                channels = noise->channelsFor(op);
            if (channels.empty() && fusion >= kFusion1q &&
                buffer.absorb(op))
                continue;

            for (const Qubit q : op.qubits)
                buffer.flush(q, plan.entries_, plan.stats_);
            PlanEntry entry = lowerOperation(op);
            if (entry.kind != KernelKind::Identity)
                plan.entries_.push_back(std::move(entry));
            for (const auto &applied : channels)
                emit_site(applied.channel, applied.qubits);
        }

        if (noisy && moment.durationNs > 0.0) {
            for (Qubit q = 0; q < circuit.numQubits(); ++q) {
                if (auto relax =
                        noise->relaxationFor(q, moment.durationNs))
                    emit_site(*relax, {q});
            }
        }
    }
    buffer.flushAll(plan.entries_, plan.stats_);
    fuseSegmentTail(plan.entries_, fence_start, fusion, plan.stats_);
    plan.stats_.entries = plan.entries_.size();
    return plan;
}

} // namespace kernels
} // namespace qra
