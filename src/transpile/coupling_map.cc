#include "transpile/coupling_map.hh"

#include <algorithm>
#include <limits>
#include <queue>
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

    std::vector<Qubit> parent(numQubits_,
                              std::numeric_limits<Qubit>::max());
    std::queue<Qubit> frontier;
    frontier.push(a);
    parent[a] = a;

    while (!frontier.empty()) {
        const Qubit cur = frontier.front();
        frontier.pop();
        for (Qubit next : adjacency_[cur]) {
            if (parent[next] != std::numeric_limits<Qubit>::max())
                continue;
            parent[next] = cur;
            if (next == b) {
                std::vector<Qubit> path{b};
                Qubit walk = b;
                while (walk != a) {
                    walk = parent[walk];
                    path.push_back(walk);
                }
                std::reverse(path.begin(), path.end());
                return path;
            }
            frontier.push(next);
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
