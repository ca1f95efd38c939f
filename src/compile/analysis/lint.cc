#include "compile/analysis/lint.hh"

#include <algorithm>
#include <numeric>
#include <queue>

#include "compile/analysis/analysis.hh"

namespace qra {
namespace compile {
namespace analysis {

namespace {

/** What the walk over the ops learns about one qubit. */
struct QubitTimeline
{
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

    /** Unitary gates touching the qubit. */
    std::size_t gateCount = 0;
    bool everMeasured = false;
    bool everPostSelected = false;
    /** Measured and not reset since. */
    bool collapsed = false;
    /** A reset or multi-qubit gate followed the last measurement. */
    bool reusedSinceMeasure = false;
    /** First 1q gate after the last measurement. */
    std::size_t gateAfterMeasure = kNever;
    /** First 2q gate on a collapsed qubit. */
    std::size_t reuseWithoutReset = kNever;
};

std::vector<QubitTimeline>
buildTimeline(const Circuit &circuit)
{
    const auto &ops = circuit.ops();
    std::vector<QubitTimeline> timeline(circuit.numQubits());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation &op = ops[i];
        if (opIsUnitary(op.kind)) {
            for (Qubit q : op.qubits) {
                QubitTimeline &line = timeline[q];
                ++line.gateCount;
                if (op.qubits.size() >= 2) {
                    line.reusedSinceMeasure = true;
                    if (line.collapsed &&
                        line.reuseWithoutReset == QubitTimeline::kNever)
                        line.reuseWithoutReset = i;
                } else if (line.everMeasured &&
                           line.gateAfterMeasure == QubitTimeline::kNever) {
                    line.gateAfterMeasure = i;
                }
            }
        } else if (op.kind == OpKind::Measure) {
            QubitTimeline &line = timeline[op.qubits[0]];
            line.everMeasured = true;
            line.collapsed = true;
            line.reusedSinceMeasure = false;
            line.gateAfterMeasure = QubitTimeline::kNever;
        } else if (op.kind == OpKind::Reset) {
            QubitTimeline &line = timeline[op.qubits[0]];
            line.collapsed = false;
            line.reusedSinceMeasure = true;
        } else if (op.kind == OpKind::PostSelect) {
            timeline[op.qubits[0]].everPostSelected = true;
        }
    }
    return timeline;
}

/** Size of the largest connected component of the coupling graph. */
std::size_t
largestDeviceComponent(const CouplingMap &coupling)
{
    const std::size_t n = coupling.numQubits();
    std::vector<char> seen(n, 0);
    std::size_t best = 0;
    for (Qubit start = 0; start < n; ++start) {
        if (seen[start])
            continue;
        std::size_t size = 0;
        std::queue<Qubit> frontier;
        frontier.push(start);
        seen[start] = 1;
        while (!frontier.empty()) {
            Qubit q = frontier.front();
            frontier.pop();
            ++size;
            for (Qubit next : coupling.neighbors(q))
                if (!seen[next]) {
                    seen[next] = 1;
                    frontier.push(next);
                }
        }
        best = std::max(best, size);
    }
    return best;
}

/** Largest multi-qubit-interaction component of the circuit. */
std::size_t
largestInteractionComponent(const Circuit &circuit)
{
    std::vector<std::size_t> parent(circuit.numQubits());
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    auto find = [&parent](std::size_t q) {
        while (parent[q] != q) {
            parent[q] = parent[parent[q]];
            q = parent[q];
        }
        return q;
    };
    for (const Operation &op : circuit.ops()) {
        if (!opIsUnitary(op.kind) || op.qubits.size() < 2)
            continue;
        for (std::size_t j = 1; j < op.qubits.size(); ++j)
            parent[find(op.qubits[0])] = find(op.qubits[j]);
    }
    std::vector<std::size_t> size(circuit.numQubits(), 0);
    std::size_t best = 0;
    for (std::size_t q = 0; q < circuit.numQubits(); ++q)
        best = std::max(best, ++size[find(q)]);
    return best;
}

} // namespace

const char *
lintCodeName(LintCode code)
{
    switch (code) {
      case LintCode::NeverObserved:
        return "QRA-L001";
      case LintCode::GateAfterMeasure:
        return "QRA-L002";
      case LintCode::VacuousEntanglement:
        return "QRA-L003";
      case LintCode::ReuseWithoutReset:
        return "QRA-L004";
      case LintCode::Unroutable:
        return "QRA-L005";
    }
    return "QRA-L???";
}

std::string
LintWarning::str() const
{
    std::string text = lintCodeName(code);
    text += " [";
    for (std::size_t j = 0; j < qubits.size(); ++j)
        text += (j ? " q" : "q") + std::to_string(qubits[j]);
    if (opIndex != kWholeCircuit)
        text += (qubits.empty() ? "@op" : " @op") +
                std::to_string(opIndex);
    text += "] " + message;
    return text;
}

std::vector<LintWarning>
lintCircuit(const Circuit &circuit,
            const std::vector<AssertionSpec> &specs,
            const CouplingMap *coupling)
{
    std::vector<LintWarning> warnings;
    const std::vector<QubitTimeline> timeline = buildTimeline(circuit);

    std::vector<char> asserted(circuit.numQubits(), 0);
    for (const AssertionSpec &spec : specs)
        for (Qubit q : spec.targets)
            if (q < asserted.size())
                asserted[q] = 1;

    // QRA-L001: gated but never observed.
    for (Qubit q = 0; q < circuit.numQubits(); ++q) {
        const QubitTimeline &line = timeline[q];
        if (line.gateCount == 0 || line.everMeasured ||
            line.everPostSelected || asserted[q])
            continue;
        warnings.push_back(
            {LintCode::NeverObserved, LintWarning::kWholeCircuit,
             {q},
             "qubit is gated but never measured or asserted; its "
             "work is unobservable"});
    }

    // QRA-L002: single-qubit gate after the final measurement. A
    // reset or a multi-qubit gate after it means intentional
    // re-preparation or QRA-L004's concern.
    for (Qubit q = 0; q < circuit.numQubits(); ++q) {
        const QubitTimeline &line = timeline[q];
        if (!line.reusedSinceMeasure &&
            line.gateAfterMeasure != QubitTimeline::kNever)
            warnings.push_back(
                {LintCode::GateAfterMeasure, line.gateAfterMeasure,
                 {q},
                 "gate after the qubit's final measurement is dead "
                 "code"});
    }

    // QRA-L003: entanglement check over provably separable targets.
    std::vector<const AssertionSpec *> entangled;
    std::vector<std::size_t> boundaries;
    for (const AssertionSpec &spec : specs) {
        if (!spec.assertion ||
            spec.assertion->kind() != AssertionKind::Entanglement ||
            spec.targets.size() < 2)
            continue;
        entangled.push_back(&spec);
        boundaries.push_back(std::min(spec.insertAt, circuit.size()));
    }
    const std::vector<std::vector<std::uint32_t>> groupIds =
        groupIdsAt(circuit, boundaries);
    for (std::size_t k = 0; k < entangled.size(); ++k) {
        const AssertionSpec &spec = *entangled[k];
        const std::size_t boundary = boundaries[k];
        const std::vector<std::uint32_t> &ids = groupIds[k];
        bool split = false;
        for (std::size_t j = 1; j < spec.targets.size() && !split; ++j)
            split = ids.at(spec.targets[j]) != ids.at(spec.targets[0]);
        if (!split)
            continue;
        std::vector<Qubit> targets = spec.targets;
        std::sort(targets.begin(), targets.end());
        warnings.push_back(
            {LintCode::VacuousEntanglement, boundary,
             std::move(targets),
             "entanglement assertion targets are provably "
             "unentangled at the insertion point; the parity check "
             "is vacuous" +
                 (spec.label.empty() ? std::string()
                                     : " (" + spec.label + ")")});
    }

    // QRA-L004: collapsed ancilla reused without reset.
    for (Qubit q = 0; q < circuit.numQubits(); ++q) {
        const QubitTimeline &line = timeline[q];
        if (line.reuseWithoutReset == QubitTimeline::kNever)
            continue;
        warnings.push_back(
            {LintCode::ReuseWithoutReset, line.reuseWithoutReset,
             {q},
             "measured qubit enters a multi-qubit gate without an "
             "intervening reset"});
    }

    // QRA-L005: unroutable on the device under any layout.
    if (coupling != nullptr) {
        if (circuit.numQubits() > coupling->numQubits()) {
            warnings.push_back(
                {LintCode::Unroutable, LintWarning::kWholeCircuit,
                 {},
                 "circuit uses " + std::to_string(circuit.numQubits()) +
                     " qubits but the device has " +
                     std::to_string(coupling->numQubits())});
        } else {
            const std::size_t need =
                largestInteractionComponent(circuit);
            const std::size_t have =
                largestDeviceComponent(*coupling);
            if (need > have)
                warnings.push_back(
                    {LintCode::Unroutable, LintWarning::kWholeCircuit,
                     {},
                     "an interaction component of " +
                         std::to_string(need) +
                         " qubits cannot fit the largest connected "
                         "device component of " +
                         std::to_string(have)});
        }
    }

    std::sort(warnings.begin(), warnings.end(),
              [](const LintWarning &a, const LintWarning &b) {
                  if (a.code != b.code)
                      return a.code < b.code;
                  if (a.opIndex != b.opIndex)
                      return a.opIndex < b.opIndex;
                  const Qubit qa = a.qubits.empty() ? 0 : a.qubits[0];
                  const Qubit qb = b.qubits.empty() ? 0 : b.qubits[0];
                  return qa < qb;
              });
    return warnings;
}

} // namespace analysis
} // namespace compile
} // namespace qra
