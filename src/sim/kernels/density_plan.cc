#include "sim/kernels/density_plan.hh"

#include "circuit/schedule.hh"
#include "noise/channels.hh"

namespace qra {
namespace kernels {

Matrix
superoperator(const std::vector<Matrix> &kraus)
{
    const std::size_t dim = kraus.front().rows();
    Matrix s(dim * dim, dim * dim);
    for (const Matrix &k : kraus)
        s += k.kron(k.conjugate());
    return s;
}

namespace {

/** The copy of a register entry that acts on the row index (Q + n). */
PlanEntry
rowHalf(PlanEntry entry, std::size_t n)
{
    const auto shift = static_cast<Qubit>(n);
    entry.q0 += shift;
    entry.q1 += shift;
    entry.q2 += shift;
    entry.mask <<= n;
    for (Qubit &q : entry.qubits)
        q += shift;
    return entry;
}

/** conj(U) of a register entry, acting on the column index (Q). */
PlanEntry
columnHalf(PlanEntry entry)
{
    for (Complex &v : entry.m)
        v = std::conj(v);
    entry.phase = std::conj(entry.phase);
    entry.dense = entry.dense.conjugate();
    return entry;
}

/**
 * Emits entries under the fusion rules of the file comment. Noise-free
 * entries collect in a register-level segment (doubled on flush);
 * one-qubit superoperators collect per qubit. Invariant: a qubit with
 * a pending superoperator has no buffered 1q run, and every segment
 * entry on it precedes the pending superoperator, so flushing the
 * segment before any pending 4x4 keeps each qubit's order.
 */
class Lowering
{
  public:
    Lowering(std::size_t n, int fusion, std::vector<PlanEntry> &out,
             PlanStats &stats)
        : n_(n), fusion_(fusion), out_(out), stats_(stats), buffer_(n),
          pending_(n)
    {
    }

    /** A gate that injects no noise. */
    void
    gate(const Operation &op)
    {
        if (fusion_ >= kFusion1q && op.qubits.size() == 1) {
            Matrix &pending = pending_[op.qubits[0]];
            if (pending.rows() != 0) {
                pending = superoperator({op.matrix()}) * pending;
                ++stats_.fusedGates;
                return;
            }
            if (buffer_.absorb(op))
                return;
        }
        unitary(op.qubits, lowerOperation(op));
    }

    /** A register-level unitary entry on @p qubits. */
    void
    unitary(const Operands &qubits, PlanEntry entry)
    {
        if (entry.kind == KernelKind::Identity)
            return;
        for (const Qubit q : qubits) {
            buffer_.flush(q, segment_, stats_);
            flushPending(q);
        }
        segment_.push_back(std::move(entry));
    }

    /** Superoperator @p s (see superoperator()) on @p qubits. */
    void
    channel(const Operands &qubits, Matrix s)
    {
        for (const Qubit q : qubits)
            buffer_.flush(q, segment_, stats_);
        if (qubits.size() == 1) {
            Matrix &pending = pending_[qubits[0]];
            if (fusion_ >= kFusion1q) {
                pending = pending.rows() != 0 ? s * pending : s;
                return;
            }
            flushSegment();
            emit1q(qubits[0], s);
            return;
        }
        for (const Qubit q : qubits)
            flushPending(q);
        flushSegment();
        PlanEntry entry;
        entry.kind = KernelKind::GenericK;
        entry.qubits.assign(qubits.begin(), qubits.end());
        for (const Qubit q : qubits)
            entry.qubits.push_back(q + static_cast<Qubit>(n_));
        entry.dense = std::move(s);
        out_.push_back(std::move(entry));
    }

    /** Close every fusion window (barriers, post-selection, end). */
    void
    fence()
    {
        buffer_.flushAll(segment_, stats_);
        for (Qubit q = 0; q < n_; ++q)
            flushPending(q);
        flushSegment();
    }

  private:
    void
    flushPending(Qubit q)
    {
        if (pending_[q].rows() == 0)
            return;
        flushSegment();
        emit1q(q, pending_[q]);
        pending_[q] = Matrix();
    }

    void
    flushSegment()
    {
        std::size_t start = 0;
        fuseSegmentTail(segment_, start, fusion_, stats_);
        for (const PlanEntry &entry : segment_) {
            out_.push_back(rowHalf(entry, n_));
            out_.push_back(columnHalf(entry));
        }
        segment_.clear();
    }

    /** Classify a 4x4 superoperator on (q, q + n) into one kernel. */
    void
    emit1q(Qubit q, const Matrix &s)
    {
        PlanEntry entry =
            classify2q(q, q + static_cast<Qubit>(n_), s.data().data());
        if (entry.kind != KernelKind::Identity)
            out_.push_back(std::move(entry));
    }

    std::size_t n_;
    int fusion_;
    std::vector<PlanEntry> &out_;
    PlanStats &stats_;
    Fusion1qBuffer buffer_;
    std::vector<PlanEntry> segment_;
    std::vector<Matrix> pending_;
};

} // namespace

DensityPlan
DensityPlan::compile(const Circuit &circuit, const NoiseModel *noise,
                     int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    const bool noisy = noise != nullptr && noise->enabled();
    const std::size_t n = circuit.numQubits();

    DensityPlan plan;
    Lowering lower(n, fusion, plan.entries_, plan.stats_);

    // An unread measurement is full phase damping; reset is full
    // amplitude damping.
    const Matrix dephase =
        superoperator(channels::phaseDamping(1.0).operators());
    const Matrix reset =
        superoperator(channels::amplitudeDamping(1.0).operators());

    auto duration = [&](const Operation &op) {
        return noisy ? noise->opDuration(op) : 0.0;
    };
    const std::vector<TimedMoment> moments =
        computeTimedMoments(circuit, duration);

    // Barriers fence fusion as in TrajectoryPlan: the moment schedule
    // drops them, so each op carries its program-order barrier epoch.
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
    const std::vector<bool> mid = midCircuitMeasurements(circuit);
    // Terminally measured qubits: frozen, see the file comment.
    std::vector<bool> frozen(n, false);

    for (const TimedMoment &moment : moments) {
        for (const std::size_t idx : moment.opIndices) {
            const Operation &op = circuit.ops()[idx];
            ++plan.stats_.sourceOps;
            if (op_epoch[idx] != current_epoch) {
                lower.fence();
                current_epoch = op_epoch[idx];
            }
            switch (op.kind) {
              case OpKind::Measure:
              {
                const Qubit q = op.qubits[0];
                if (mid[idx]) {
                    lower.fence();
                    plan.entries_.push_back(lowerOperation(op));
                    ++plan.records_;
                } else {
                    lower.channel(op.qubits, dephase);
                    frozen[q] = true;
                }
                std::erase_if(plan.writers_, [&](const ClbitWriter &w) {
                    return w.clbit == *op.clbit;
                });
                plan.writers_.push_back({q, *op.clbit, mid[idx]});
                continue;
              }
              case OpKind::Barrier:
                continue;
              case OpKind::Reset:
                lower.channel(op.qubits, reset);
                continue;
              case OpKind::PostSelect:
                lower.fence();
                plan.entries_.push_back(lowerOperation(op));
                continue;
              default:
                break;
            }

            std::vector<NoiseModel::AppliedChannel> applied;
            if (noisy)
                applied = noise->channelsFor(op);
            if (applied.empty()) {
                lower.gate(op);
                continue;
            }
            // A gate and its own channel fold into one superoperator.
            if (fusion >= kFusion1q && applied.size() == 1 &&
                applied[0].qubits == op.qubits) {
                lower.channel(
                    op.qubits,
                    superoperator(applied[0].channel.operators()) *
                        superoperator({op.matrix()}));
                continue;
            }
            lower.unitary(op.qubits, lowerOperation(op));
            for (const auto &[channel, qubits] : applied)
                lower.channel(qubits,
                              superoperator(channel.operators()));
        }

        if (noisy && moment.durationNs > 0.0) {
            for (Qubit q = 0; q < n; ++q) {
                if (frozen[q])
                    continue;
                if (auto relax =
                        noise->relaxationFor(q, moment.durationNs))
                    lower.channel({q},
                                  superoperator(relax->operators()));
            }
        }
    }
    lower.fence();
    plan.stats_.entries = plan.entries_.size();
    return plan;
}

} // namespace kernels
} // namespace qra
