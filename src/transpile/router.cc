#include "transpile/router.hh"

#include <algorithm>
#include <deque>

#include "common/error.hh"

namespace qra {

namespace {

/**
 * Free physical qubit nearest to any of @p sources: multi-source BFS
 * over the undirected coupling graph, deterministic in the map's edge
 * order; the lowest free index when the sources reach none.
 */
Qubit
nearestFree(const CouplingMap &map, const Layout &layout,
            const std::vector<bool> &bound,
            const std::vector<Qubit> &sources)
{
    auto is_free = [&](Qubit p) { return !bound[layout.virtualOf(p)]; };
    std::vector<bool> visited(map.numQubits(), false);
    std::deque<Qubit> frontier;
    for (const Qubit s : sources) {
        if (!visited[s]) {
            visited[s] = true;
            frontier.push_back(s);
        }
    }
    while (!frontier.empty()) {
        const Qubit q = frontier.front();
        frontier.pop_front();
        if (is_free(q))
            return q;
        for (const Qubit nb : map.neighbors(q)) {
            if (!visited[nb]) {
                visited[nb] = true;
                frontier.push_back(nb);
            }
        }
    }
    for (Qubit p = 0; p < map.numQubits(); ++p)
        if (is_free(p))
            return p;
    throw TranspileError("no free physical qubit for an anchored wire");
}

} // namespace

RoutedCircuit
routeCircuit(Circuit circuit, const CouplingMap &map,
             const Layout &initial, const WireAnchors &anchors)
{
    if (circuit.numQubits() > map.numQubits())
        throw TranspileError("circuit does not fit on the device");
    if (!map.isConnected())
        throw TranspileError("coupling map is not connected");

    Circuit routed(map.numQubits(), circuit.numClbits(),
                   circuit.name() + "_routed");
    Layout layout = initial;
    std::size_t swaps = 0;

    // Wires that hold state: the circuit's unanchored wires from the
    // start, anchored ones from their first operation on.
    std::vector<bool> bound(
        std::max(layout.numQubits(), circuit.numQubits()), false);
    for (Qubit v = 0; v < circuit.numQubits(); ++v)
        bound[v] = v >= anchors.size() || anchors[v].empty();

    auto bind = [&](Qubit v) {
        std::vector<Qubit> sources;
        for (const Qubit a : anchors[v])
            if (a < bound.size() && bound[a])
                sources.push_back(layout.physical(a));
        const Qubit p = nearestFree(map, layout, bound, sources);
        layout.swapPhysical(layout.physical(v), p);
        bound[v] = true;
    };

    for (Operation &op : circuit.takeOps()) {
        if (op.kind == OpKind::CCX)
            throw TranspileError("decompose CCX before routing");
        for (const Qubit q : op.qubits)
            if (!bound[q])
                bind(q);

        // Relabel the op's virtual operands to physical ones in place.
        if (op.qubits.size() == 2 && opIsUnitary(op.kind)) {
            const Qubit va = op.qubits[0];
            const Qubit vb = op.qubits[1];
            Qubit pa = layout.physical(va);
            Qubit pb = layout.physical(vb);

            if (!map.connected(pa, pb)) {
                const std::vector<Qubit> path = map.shortestPath(pa, pb);
                QRA_ASSERT(path.size() >= 3,
                           "shortest path too short for disconnected "
                           "pair");
                // Walk the first operand toward the second, stopping
                // one hop away.
                for (std::size_t i = 0; i + 2 < path.size(); ++i) {
                    routed.swap(path[i], path[i + 1]);
                    layout.swapPhysical(path[i], path[i + 1]);
                    ++swaps;
                }
                pa = layout.physical(va);
                pb = layout.physical(vb);
                QRA_ASSERT(map.connected(pa, pb),
                           "routing failed to connect operands");
            }
            op.qubits[0] = pa;
            op.qubits[1] = pb;
        } else {
            for (auto &q : op.qubits)
                q = layout.physical(q);
        }

        routed.append(std::move(op));
    }

    return RoutedCircuit{std::move(routed), std::move(layout), swaps};
}

} // namespace qra
