/**
 * @file
 * Directed qubit connectivity graph of a device. An edge (c, t) means
 * a native CNOT with control c and target t is available. ibmqx4-era
 * devices have *directed* edges: the reverse CNOT costs four extra
 * Hadamards (see DirectionFixer).
 */

#ifndef QRA_TRANSPILE_COUPLING_MAP_HH
#define QRA_TRANSPILE_COUPLING_MAP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "math/types.hh"

namespace qra {

/** Directed connectivity graph over physical qubits. */
class CouplingMap
{
  public:
    /** @param num_qubits Number of physical qubits on the device. */
    explicit CouplingMap(std::size_t num_qubits);

    /** Add a directed edge: native CNOT control -> target. */
    void addEdge(Qubit control, Qubit target);

    std::size_t numQubits() const { return numQubits_; }

    const std::vector<std::pair<Qubit, Qubit>> &edges() const
    {
        return edges_;
    }

    /**
     * True if a native CNOT control->target exists. O(1): a lookup in
     * a dense per-pair direction table; false for out-of-range qubits.
     */
    bool hasEdge(Qubit control, Qubit target) const;

    /** True if the pair is connected in either direction. O(1). */
    bool connected(Qubit a, Qubit b) const;

    /**
     * Neighbours of @p q (union of both edge directions), in the order
     * their first edge was added. The reference lives as long as the
     * map and is invalidated by addEdge.
     */
    const std::vector<Qubit> &neighbors(Qubit q) const;

    /**
     * Shortest undirected path from @p a to @p b, inclusive of both
     * endpoints. Empty if disconnected.
     */
    std::vector<Qubit> shortestPath(Qubit a, Qubit b) const;

    /** True when every qubit can reach every other qubit. */
    bool isConnected() const;

    /** "0->1, 1->2, ..." edge list rendering. */
    std::string str() const;

  private:
    void checkQubit(Qubit q) const;

    /** directions_[a * n + b] bits: a->b native, b->a native. */
    static constexpr std::uint8_t kForward = 1;
    static constexpr std::uint8_t kBackward = 2;

    std::size_t numQubits_;
    std::vector<std::pair<Qubit, Qubit>> edges_;
    std::vector<std::vector<Qubit>> adjacency_; ///< undirected
    std::vector<std::uint8_t> directions_;      ///< n x n, see kForward
};

} // namespace qra

#endif // QRA_TRANSPILE_COUPLING_MAP_HH
