#include "compile/analysis/analysis.hh"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "math/matrix.hh"
#include "sim/kernels/plan.hh"
#include "stabilizer/stabilizer_state.hh"

namespace qra {
namespace compile {
namespace analysis {

namespace {

/** Partition effect of one instruction, precomputed per op index. */
enum class PartitionAction : std::uint8_t
{
    None,      ///< separable (1q gate, barrier, or cancelled-out run)
    Merge,     ///< union all operand groups
    SwapSlots, ///< exchange the two operand wires' groups exactly
    Reslot,    ///< measurement/reset: the wire returns to its own group
};

/** Union-find over state slots with per-root liveness + prefix count. */
class SlotPartition
{
  public:
    explicit SlotPartition(std::size_t num_qubits)
        : slotOf_(num_qubits), parent_(num_qubits), alive_(num_qubits, 1),
          prefix_(num_qubits, 0)
    {
        std::iota(slotOf_.begin(), slotOf_.end(), 0u);
        std::iota(parent_.begin(), parent_.end(), 0u);
    }

    std::uint32_t
    findRoot(Qubit wire)
    {
        return find(slotOf_[wire]);
    }

    bool isAlive(Qubit wire) { return alive_[findRoot(wire)] != 0; }
    void kill(Qubit wire) { alive_[findRoot(wire)] = 0; }

    std::size_t prefixGates(Qubit wire) { return prefix_[findRoot(wire)]; }
    void
    addPrefixGate(Qubit wire)
    {
        ++prefix_[findRoot(wire)];
    }

    void
    merge(Qubit a, Qubit b)
    {
        std::uint32_t ra = findRoot(a);
        std::uint32_t rb = findRoot(b);
        if (ra == rb)
            return;
        parent_[rb] = ra;
        alive_[ra] = alive_[ra] && alive_[rb];
        prefix_[ra] += prefix_[rb];
    }

    void
    swapSlots(Qubit a, Qubit b)
    {
        std::swap(slotOf_[a], slotOf_[b]);
    }

    /** Move @p wire to a fresh single-wire group (dead: the tableau
     *  cannot re-acquire a wire once its Clifford prefix ended). */
    void
    reslot(Qubit wire)
    {
        std::uint32_t slot = static_cast<std::uint32_t>(parent_.size());
        parent_.push_back(slot);
        alive_.push_back(0);
        prefix_.push_back(0);
        slotOf_[wire] = slot;
    }

    /** Sorted member wires of @p wire's current group. */
    std::vector<Qubit>
    members(Qubit wire)
    {
        std::uint32_t root = findRoot(wire);
        std::vector<Qubit> result;
        for (Qubit w = 0; w < slotOf_.size(); ++w)
            if (find(slotOf_[w]) == root)
                result.push_back(w);
        return result;
    }

    /** Snapshot: group id (smallest member wire) per wire. */
    std::vector<std::uint32_t>
    snapshot()
    {
        constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);
        std::vector<std::uint32_t> firstWire(parent_.size(), kUnseen);
        std::vector<std::uint32_t> byWire(slotOf_.size());
        for (Qubit w = 0; w < slotOf_.size(); ++w) {
            std::uint32_t &first = firstWire[find(slotOf_[w])];
            if (first == kUnseen)
                first = static_cast<std::uint32_t>(w);
            byWire[w] = first;
        }
        return byWire;
    }

  private:
    std::uint32_t
    find(std::uint32_t slot)
    {
        while (parent_[slot] != slot) {
            parent_[slot] = parent_[parent_[slot]];
            slot = parent_[slot];
        }
        return slot;
    }

    std::vector<std::uint32_t> slotOf_;
    std::vector<std::uint32_t> parent_;
    std::vector<char> alive_;
    std::vector<std::size_t> prefix_;
};

/** Lift @p op's unitary onto the ordered pair (lo, hi), bit 0 = lo. */
Matrix
liftToPair(const Operation &op, Qubit lo, Qubit hi)
{
    Matrix m = op.matrix();
    if (op.qubits.size() == 1) {
        // kron(A, B) puts B on the low bit.
        if (op.qubits[0] == lo)
            return Matrix::identity(2).kron(m);
        return m.kron(Matrix::identity(2));
    }
    if (op.qubits[0] == lo && op.qubits[1] == hi)
        return m;
    // Operand order reversed: conjugate by SWAP to relabel the bits.
    static const Matrix kSwap{{1, 0, 0, 0},
                              {0, 0, 1, 0},
                              {0, 1, 0, 0},
                              {0, 0, 0, 1}};
    return kSwap * m * kSwap;
}

/**
 * Default partition action of one instruction, before run refinement.
 */
PartitionAction
defaultAction(const Operation &op)
{
    switch (op.kind) {
      case OpKind::CX:
      case OpKind::CY:
      case OpKind::CZ:
      case OpKind::CCX:
        return PartitionAction::Merge;
      case OpKind::Swap:
        return PartitionAction::SwapSlots;
      case OpKind::Measure:
      case OpKind::Reset:
      case OpKind::PostSelect:
        return PartitionAction::Reslot;
      default:
        return PartitionAction::None;
    }
}

/**
 * Per-op partition actions with pair-run refinement: a maximal run of
 * consecutive unitary instructions confined to one qubit pair is
 * multiplied out and classified as a whole (kernels::classify2q), so
 * CX·CX cancellations, runs collapsing to a SWAP, and separable
 * diagonals never merge the two groups. The run's net action lands on
 * its first two-qubit instruction; the others become no-ops.
 */
std::vector<PartitionAction>
computeActions(const Circuit &circuit)
{
    const auto &ops = circuit.ops();
    std::vector<PartitionAction> actions(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        actions[i] = defaultAction(ops[i]);

    std::size_t i = 0;
    while (i < ops.size()) {
        const Operation &op = ops[i];
        if (!opIsUnitary(op.kind) || op.qubits.size() != 2) {
            ++i;
            continue;
        }
        const Qubit lo = std::min(op.qubits[0], op.qubits[1]);
        const Qubit hi = std::max(op.qubits[0], op.qubits[1]);
        // Extend the run while instructions stay unitary and confined
        // to {lo, hi}.
        std::size_t end = i;
        while (end < ops.size()) {
            const Operation &cur = ops[end];
            if (!opIsUnitary(cur.kind))
                break;
            bool confined = true;
            for (Qubit q : cur.qubits)
                confined = confined && (q == lo || q == hi);
            if (!confined)
                break;
            ++end;
        }
        if (end == i + 1) {
            ++i;
            continue; // lone gate: the default action is already exact
        }
        Matrix product = Matrix::identity(4);
        for (std::size_t j = i; j < end; ++j)
            product = liftToPair(ops[j], lo, hi) * product;
        kernels::PlanEntry entry =
            kernels::classify2q(lo, hi, product.data().data());

        PartitionAction net = PartitionAction::Merge;
        switch (entry.kind) {
          case kernels::KernelKind::Identity:
          case kernels::KernelKind::Diagonal1q:
          case kernels::KernelKind::AntiDiagonal1q:
          case kernels::KernelKind::General1q:
          case kernels::KernelKind::PauliX:
            net = PartitionAction::None;
            break;
          case kernels::KernelKind::PhaseOnMask: {
            // Diagonal: entangling only when the phase mask involves
            // both wires; a single-wire phase is separable.
            const std::uint64_t pair_mask =
                (std::uint64_t{1} << lo) | (std::uint64_t{1} << hi);
            net = ((entry.mask & pair_mask) == pair_mask)
                      ? PartitionAction::Merge
                      : PartitionAction::None;
            break;
          }
          case kernels::KernelKind::SwapQubits:
            net = PartitionAction::SwapSlots;
            break;
          default:
            net = PartitionAction::Merge;
            break;
        }
        bool placed = false;
        for (std::size_t j = i; j < end; ++j) {
            if (ops[j].qubits.size() != 2)
                continue;
            actions[j] = placed ? PartitionAction::None : net;
            placed = true;
        }
        i = end;
    }
    return actions;
}

/** Apply one instruction's partition action to @p partition. */
void
applyAction(SlotPartition &partition, const Operation &op,
            PartitionAction action)
{
    switch (action) {
      case PartitionAction::None:
        break;
      case PartitionAction::Merge:
        for (std::size_t j = 1; j < op.qubits.size(); ++j)
            partition.merge(op.qubits[0], op.qubits[j]);
        break;
      case PartitionAction::SwapSlots:
        partition.swapSlots(op.qubits[0], op.qubits[1]);
        break;
      case PartitionAction::Reslot:
        partition.reslot(op.qubits[0]);
        break;
    }
}

/** Deterministic measurement outcome, or -1 when the qubit is random. */
int
outcomeOf(const StabilizerState &tableau, Qubit q)
{
    double p = tableau.probabilityOfOne(q);
    if (p < 0.25)
        return 0;
    if (p > 0.75)
        return 1;
    return -1;
}

/** Classify one group's tableau state at its cut point. */
GroupFact
classifyGroup(const StabilizerState &tableau, std::vector<Qubit> members,
              std::size_t cut, std::size_t prefix_gates)
{
    GroupFact fact;
    fact.qubits = std::move(members);
    fact.cutIndex = cut;
    fact.prefixGates = prefix_gates;
    fact.state = GroupState::Other;
    if (fact.qubits.size() > 64)
        return fact;

    std::uint64_t bits = 0;
    bool all_deterministic = true;
    for (std::size_t j = 0; j < fact.qubits.size(); ++j) {
        int outcome = outcomeOf(tableau, fact.qubits[j]);
        if (outcome < 0) {
            all_deterministic = false;
            break;
        }
        bits |= std::uint64_t(outcome) << j;
    }
    if (all_deterministic) {
        fact.state = GroupState::KnownBasis;
        fact.basisBits = bits;
        return fact;
    }

    if (fact.qubits.size() == 1) {
        // |+> and |-> turn deterministic under H.
        StabilizerState copy = tableau;
        copy.applyH(fact.qubits[0]);
        int outcome = outcomeOf(copy, fact.qubits[0]);
        if (outcome >= 0) {
            fact.state = GroupState::UniformSuperposition;
            fact.minusPhase = outcome == 1;
        }
        return fact;
    }

    // GHZ-class test: un-build with CX fan-out from the first member.
    // A complement-pair state a|x> + b|~x> maps to a product where
    // member j >= 1 is deterministic with value x_j ^ x_0 and member 0
    // stays uniformly random.
    StabilizerState copy = tableau;
    const Qubit head = fact.qubits[0];
    for (std::size_t j = 1; j < fact.qubits.size(); ++j)
        copy.applyCx(head, fact.qubits[j]);
    if (outcomeOf(copy, head) >= 0)
        return fact;
    std::uint64_t rel = 0;
    for (std::size_t j = 1; j < fact.qubits.size(); ++j) {
        int outcome = outcomeOf(copy, fact.qubits[j]);
        if (outcome < 0)
            return fact;
        rel |= std::uint64_t(outcome) << j;
    }
    if (rel == 0) {
        fact.state = GroupState::GhzLike;
        fact.oddParity = false;
    } else if (fact.qubits.size() == 2 && rel == 2) {
        fact.state = GroupState::GhzLike;
        fact.oddParity = true;
    }
    return fact;
}

/** Known-basis frontier: one optional bit per wire. */
class Frontier
{
  public:
    explicit Frontier(std::size_t num_qubits)
        : value_(num_qubits, 0), known_(num_qubits, 1),
          measureFactDone_(num_qubits, 0), opsTouched_(num_qubits, 0)
    {
    }

    void
    step(const Operation &op, std::size_t index,
         std::vector<FrontierFact> &out)
    {
        const auto &q = op.qubits;
        if (opIsUnitary(op.kind))
            for (Qubit w : q)
                ++opsTouched_[w];
        switch (op.kind) {
          case OpKind::I:
          case OpKind::Z:
          case OpKind::S:
          case OpKind::Sdg:
          case OpKind::T:
          case OpKind::Tdg:
          case OpKind::RZ:
          case OpKind::P:
          case OpKind::CZ:
          case OpKind::Barrier:
            break;
          case OpKind::Measure:
            // The value survives measurement; record the fact at the
            // first measurement, the natural pre-readout cut point.
            if (known_[q[0]] && !measureFactDone_[q[0]]) {
                out.push_back(FrontierFact{q[0], index, value_[q[0]],
                                           opsTouched_[q[0]]});
                measureFactDone_[q[0]] = 1;
            }
            break;
          case OpKind::X:
          case OpKind::Y:
            value_[q[0]] ^= 1;
            break;
          case OpKind::Swap:
            std::swap(value_[q[0]], value_[q[1]]);
            std::swap(known_[q[0]], known_[q[1]]);
            break;
          case OpKind::CX:
          case OpKind::CY:
            if (!known_[q[0]])
                forget(q[1], index, out);
            else if (value_[q[0]])
                value_[q[1]] ^= 1;
            break;
          case OpKind::CCX:
            if ((known_[q[0]] && !value_[q[0]]) ||
                (known_[q[1]] && !value_[q[1]]))
                break; // a control is provably 0: no-op
            if (known_[q[0]] && known_[q[1]])
                value_[q[2]] ^= 1;
            else
                forget(q[2], index, out);
            break;
          case OpKind::Reset:
            value_[q[0]] = 0;
            known_[q[0]] = 1;
            break;
          case OpKind::PostSelect:
            value_[q[0]] = op.postselectValue;
            known_[q[0]] = 1;
            break;
          default: // H, SX, RX, RY, U: basis value lost
            forget(q[0], index, out);
            break;
        }
    }

    void
    finish(const Circuit &circuit, std::vector<FrontierFact> &out) const
    {
        // Wires still known at the end and never measured: the fact
        // holds over the whole program (measured wires already got a
        // fact at their first measurement).
        for (Qubit w = 0; w < value_.size(); ++w)
            if (known_[w] && !measureFactDone_[w])
                out.push_back(FrontierFact{w, circuit.size(), value_[w],
                                           opsTouched_[w]});
    }

  private:
    void
    forget(Qubit w, std::size_t index, std::vector<FrontierFact> &out)
    {
        if (known_[w]) {
            // opsTouched_ already counts the op that forgets the
            // value; the fact only covers the gates before it.
            std::size_t touched = opsTouched_[w] ? opsTouched_[w] - 1 : 0;
            out.push_back(FrontierFact{w, index, value_[w], touched});
        }
        known_[w] = 0;
    }

    std::vector<int> value_;
    std::vector<char> known_;
    std::vector<char> measureFactDone_;
    std::vector<std::size_t> opsTouched_;
};

} // namespace

const char *
groupStateName(GroupState state)
{
    switch (state) {
      case GroupState::KnownBasis:
        return "known-basis";
      case GroupState::UniformSuperposition:
        return "uniform-superposition";
      case GroupState::GhzLike:
        return "ghz-like";
      case GroupState::Other:
        return "other";
    }
    return "?";
}

CircuitAnalysis
analyzeCircuit(const Circuit &circuit)
{
    const std::size_t n = circuit.numQubits();
    const auto &ops = circuit.ops();

    CircuitAnalysis result;
    result.numQubits = n;
    result.numOps = ops.size();

    SlotPartition partition(n);
    StabilizerState tableau(n);
    Frontier frontier(n);
    const std::vector<PartitionAction> actions = computeActions(circuit);

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation &op = ops[i];

        // --- stabilizer-prefix domain --------------------------------
        if (op.kind != OpKind::Barrier) {
            bool all_alive = true;
            for (Qubit q : op.qubits)
                all_alive = all_alive && partition.isAlive(q);
            const bool track = all_alive && opIsUnitary(op.kind) &&
                               StabilizerState::isCliffordOp(op.kind);
            if (track) {
                tableau.applyUnitary(op);
                ++result.cliffordPrefixGates;
            } else {
                // The Clifford prefix of every live operand group ends
                // here: emit its fact, then abandon it. Distinct roots
                // are visited once (members() is canonical).
                for (Qubit q : op.qubits) {
                    if (!partition.isAlive(q))
                        continue;
                    result.facts.push_back(classifyGroup(
                        tableau, partition.members(q), i,
                        partition.prefixGates(q)));
                    partition.kill(q);
                }
            }
            // --- separability partition ------------------------------
            applyAction(partition, op, actions[i]);
            if (track) {
                // Count the gate for each (post-merge) operand group.
                std::uint32_t last_root =
                    static_cast<std::uint32_t>(-1);
                for (Qubit q : op.qubits) {
                    std::uint32_t root = partition.findRoot(q);
                    if (root != last_root)
                        partition.addPrefixGate(q);
                    last_root = root;
                }
            }
        }

        // --- known-basis frontier ------------------------------------
        frontier.step(op, i, result.frontier);
    }
    frontier.finish(circuit, result.frontier);

    // Groups still alive at the end of the circuit: their Clifford
    // prefix is the whole program.
    std::vector<char> emitted(n, 0);
    for (Qubit q = 0; q < n; ++q) {
        if (emitted[q] || !partition.isAlive(q))
            continue;
        std::vector<Qubit> members = partition.members(q);
        for (Qubit w : members)
            emitted[w] = 1;
        result.facts.push_back(classifyGroup(tableau, std::move(members),
                                             ops.size(),
                                             partition.prefixGates(q)));
    }

    std::sort(result.facts.begin(), result.facts.end(),
              [](const GroupFact &a, const GroupFact &b) {
                  if (a.cutIndex != b.cutIndex)
                      return a.cutIndex < b.cutIndex;
                  return a.qubits.front() < b.qubits.front();
              });

    // Final partition, one sorted group per entry, ordered by leader.
    const std::vector<std::uint32_t> leader = partition.snapshot();
    std::vector<std::vector<Qubit>> groups(n);
    for (Qubit w = 0; w < n; ++w)
        groups[leader[w]].push_back(w);
    for (auto &group : groups)
        if (!group.empty())
            result.finalGroups.push_back(std::move(group));

    return result;
}

std::vector<std::vector<std::uint32_t>>
groupIdsAt(const Circuit &circuit, const std::vector<std::size_t> &boundaries)
{
    if (boundaries.empty())
        return {};
    const auto &ops = circuit.ops();
    const std::vector<PartitionAction> actions = computeActions(circuit);
    std::vector<std::size_t> order(boundaries.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&boundaries](std::size_t a, std::size_t b) {
                  return boundaries[a] < boundaries[b];
              });

    std::vector<std::vector<std::uint32_t>> ids(boundaries.size());
    SlotPartition partition(circuit.numQubits());
    std::size_t applied = 0;
    for (std::size_t k : order) {
        const std::size_t boundary = std::min(boundaries[k], ops.size());
        for (; applied < boundary; ++applied)
            applyAction(partition, ops[applied], actions[applied]);
        ids[k] = partition.snapshot();
    }
    return ids;
}

} // namespace analysis
} // namespace compile
} // namespace qra
