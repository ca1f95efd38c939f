#include "transpile/layout.hh"

#include <algorithm>
#include <map>

#include "common/error.hh"

namespace qra {

Layout::Layout(std::size_t num_qubits)
{
    v2p_.resize(num_qubits);
    for (Qubit q = 0; q < num_qubits; ++q)
        v2p_[q] = q;
    rebuildInverse();
}

Layout::Layout(std::vector<Qubit> virtual_to_physical)
    : v2p_(std::move(virtual_to_physical))
{
    // Validate bijectivity.
    std::vector<bool> seen(v2p_.size(), false);
    for (Qubit p : v2p_) {
        if (p >= v2p_.size() || seen[p])
            throw TranspileError("layout is not a bijection");
        seen[p] = true;
    }
    rebuildInverse();
}

void
Layout::rebuildInverse()
{
    p2v_.assign(v2p_.size(), 0);
    for (Qubit v = 0; v < v2p_.size(); ++v)
        p2v_[v2p_[v]] = v;
}

Qubit
Layout::physical(Qubit v) const
{
    if (v >= v2p_.size())
        throw TranspileError("virtual qubit out of range");
    return v2p_[v];
}

Qubit
Layout::virtualOf(Qubit p) const
{
    if (p >= p2v_.size())
        throw TranspileError("physical qubit out of range");
    return p2v_[p];
}

void
Layout::swapPhysical(Qubit p0, Qubit p1)
{
    const Qubit v0 = virtualOf(p0);
    const Qubit v1 = virtualOf(p1);
    std::swap(v2p_[v0], v2p_[v1]);
    std::swap(p2v_[p0], p2v_[p1]);
}

Layout
trivialLayout(const Circuit &circuit, const CouplingMap &map)
{
    if (circuit.numQubits() > map.numQubits())
        throw TranspileError("circuit does not fit on the device");
    return Layout(map.numQubits());
}

Layout
greedyLayout(const Circuit &circuit, const CouplingMap &map)
{
    if (circuit.numQubits() > map.numQubits())
        throw TranspileError("circuit does not fit on the device");

    const std::size_t n = map.numQubits();

    // Interaction weights between virtual qubit pairs, in two-qubit
    // gates after CCX lowering: the decomposer emits two CNOTs on
    // each pair of a CCX, so the layout is the same whether it is
    // chosen before or after that lowering.
    std::map<std::pair<Qubit, Qubit>, std::size_t> weight;
    for (const Operation &op : circuit.ops()) {
        if (op.qubits.size() < 2 || !opIsUnitary(op.kind))
            continue;
        const std::size_t gates = op.kind == OpKind::CCX ? 2 : 1;
        for (std::size_t i = 0; i < op.qubits.size(); ++i) {
            for (std::size_t j = i + 1; j < op.qubits.size(); ++j) {
                const Qubit a = std::min(op.qubits[i], op.qubits[j]);
                const Qubit b = std::max(op.qubits[i], op.qubits[j]);
                weight[{a, b}] += gates;
            }
        }
    }

    // Pairs sorted by descending interaction count.
    std::vector<std::pair<std::size_t, std::pair<Qubit, Qubit>>> ranked;
    ranked.reserve(weight.size());
    for (const auto &[pair, w] : weight)
        ranked.push_back({w, pair});
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });

    constexpr Qubit unassigned = static_cast<Qubit>(-1);
    std::vector<Qubit> v2p(n, unassigned);
    std::vector<bool> used(n, false);

    auto assign = [&](Qubit v, Qubit p) {
        v2p[v] = p;
        used[p] = true;
    };

    // Place the heaviest pair on the physical edge whose endpoints
    // have the highest degree (most routing freedom later).
    for (const auto &[w, pair] : ranked) {
        const auto [va, vb] = pair;
        const bool a_placed = v2p[va] != unassigned;
        const bool b_placed = v2p[vb] != unassigned;

        if (a_placed && b_placed)
            continue;

        if (!a_placed && !b_placed) {
            std::size_t best_score = 0;
            int best_edge = -1;
            for (std::size_t e = 0; e < map.edges().size(); ++e) {
                const auto [pc, pt] = map.edges()[e];
                if (used[pc] || used[pt])
                    continue;
                const std::size_t score = map.neighbors(pc).size() +
                                          map.neighbors(pt).size();
                if (score >= best_score) {
                    best_score = score;
                    best_edge = static_cast<int>(e);
                }
            }
            if (best_edge >= 0) {
                const auto [pc, pt] =
                    map.edges()[static_cast<std::size_t>(best_edge)];
                assign(va, pc);
                assign(vb, pt);
            }
            continue;
        }

        // One endpoint placed: put the other on a free neighbour.
        const Qubit placed_v = a_placed ? va : vb;
        const Qubit free_v = a_placed ? vb : va;
        for (Qubit nb : map.neighbors(v2p[placed_v])) {
            if (!used[nb]) {
                assign(free_v, nb);
                break;
            }
        }
    }

    // Any leftover virtual qubits take the remaining physical slots.
    for (Qubit v = 0; v < n; ++v) {
        if (v2p[v] != unassigned)
            continue;
        for (Qubit p = 0; p < n; ++p) {
            if (!used[p]) {
                assign(v, p);
                break;
            }
        }
    }

    return Layout(std::move(v2p));
}

} // namespace qra
