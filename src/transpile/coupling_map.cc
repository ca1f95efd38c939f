#include "transpile/coupling_map.hh"

#include <limits>
#include <sstream>

#include "common/error.hh"

namespace qra {

CouplingMap::CouplingMap(std::size_t num_qubits)
    : numQubits_(num_qubits), adjacency_(num_qubits),
      directions_(num_qubits * num_qubits, 0)
{
    if (num_qubits == 0)
        throw TranspileError("coupling map needs at least one qubit");
}

void
CouplingMap::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw TranspileError("physical qubit " + std::to_string(q) +
                             " out of range");
}

void
CouplingMap::addEdge(Qubit control, Qubit target)
{
    checkQubit(control);
    checkQubit(target);
    if (control == target)
        throw TranspileError("self-loop edge");
    if (hasEdge(control, target))
        return;
    edges_.emplace_back(control, target);
    if (!connected(control, target)) {
        adjacency_[control].push_back(target);
        adjacency_[target].push_back(control);
    }
    directions_[control * numQubits_ + target] |= kForward;
    directions_[target * numQubits_ + control] |= kBackward;
}

bool
CouplingMap::hasEdge(Qubit control, Qubit target) const
{
    return control < numQubits_ && target < numQubits_ &&
           (directions_[control * numQubits_ + target] & kForward) != 0;
}

bool
CouplingMap::connected(Qubit a, Qubit b) const
{
    return a < numQubits_ && b < numQubits_ &&
           directions_[a * numQubits_ + b] != 0;
}

const std::vector<Qubit> &
CouplingMap::neighbors(Qubit q) const
{
    checkQubit(q);
    return adjacency_[q];
}

std::vector<Qubit>
CouplingMap::shortestPath(Qubit a, Qubit b) const
{
    checkQubit(a);
    checkQubit(b);
    if (a == b)
        return {a};

    // Breadth-first from a; one block holds the parent table and the
    // FIFO queue (each qubit is queued at most once).
    constexpr Qubit kUnseen = std::numeric_limits<Qubit>::max();
    std::vector<Qubit> scratch(2 * numQubits_, kUnseen);
    Qubit *parent = scratch.data();
    Qubit *queue = parent + numQubits_;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = a;
    parent[a] = a;

    while (head < tail) {
        const Qubit cur = queue[head++];
        for (Qubit next : adjacency_[cur]) {
            if (parent[next] != kUnseen)
                continue;
            parent[next] = cur;
            if (next == b) {
                std::size_t hops = 1;
                for (Qubit walk = b; walk != a; walk = parent[walk])
                    ++hops;
                std::vector<Qubit> path(hops);
                for (Qubit walk = b; hops-- > 0; walk = parent[walk])
                    path[hops] = walk;
                return path;
            }
            queue[tail++] = next;
        }
    }
    return {};
}

bool
CouplingMap::isConnected() const
{
    // One breadth-first walk from qubit 0 must reach every qubit.
    std::vector<bool> seen(numQubits_, false);
    std::vector<Qubit> frontier{0};
    seen[0] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
        const Qubit cur = frontier.back();
        frontier.pop_back();
        for (const Qubit next : adjacency_[cur]) {
            if (!seen[next]) {
                seen[next] = true;
                ++reached;
                frontier.push_back(next);
            }
        }
    }
    return reached == numQubits_;
}

std::string
CouplingMap::str() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        if (i)
            os << ", ";
        os << edges_[i].first << "->" << edges_[i].second;
    }
    return os.str();
}

} // namespace qra
