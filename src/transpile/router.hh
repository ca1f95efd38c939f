/**
 * @file
 * SWAP router: makes every multi-qubit gate act on physically
 * adjacent qubits by inserting SWAP chains along shortest paths, and
 * binds anchored wires (assertion ancillas) next to their anchors at
 * the moment routing first reaches them.
 */

#ifndef QRA_TRANSPILE_ROUTER_HH
#define QRA_TRANSPILE_ROUTER_HH

#include <vector>

#include "circuit/circuit.hh"
#include "transpile/coupling_map.hh"
#include "transpile/layout.hh"

namespace qra {

/** Result of routing: the physical circuit plus the final layout. */
struct RoutedCircuit
{
    Circuit circuit;
    /** Layout after all inserted SWAPs (virtual -> physical). */
    Layout finalLayout;
    /** Number of SWAP gates inserted. */
    std::size_t insertedSwaps = 0;
};

/**
 * Per-wire anchors, indexed by virtual wire: a wire with a non-empty
 * list is placed at route time next to the listed wires; wires past
 * the end of the list (or with an empty one) keep their initial slot.
 */
using WireAnchors = std::vector<std::vector<Qubit>>;

/**
 * Route @p circuit onto @p map starting from @p initial layout.
 *
 * The output circuit is expressed over *physical* qubits; classical
 * bits are unchanged. Two-qubit gates in the output act only on
 * coupled pairs (in either direction; DirectionFixer resolves
 * orientation). CCX must be decomposed before routing.
 *
 * A wire with @p anchors stays unbound until its first operation. It
 * then takes the free physical qubit nearest its bound anchors'
 * *current* (post-SWAP) positions: breadth-first over the undirected
 * coupling graph in the map's edge order, or the lowest free index
 * when no anchor is bound. A slot is free when it holds a wire past
 * the circuit's width or an anchored wire not yet bound; both are
 * still |0>, so binding relabels the layout and emits no gate. This
 * is what automates the paper's hand placement of each check's
 * ancilla next to its targets: binding when the check is reached,
 * rather than before any SWAP exists, keeps layout drift from
 * stranding the ancilla. Without anchors the output is that of plain
 * routing. Consumes @p circuit (pass an rvalue to move its ops).
 */
RoutedCircuit routeCircuit(Circuit circuit, const CouplingMap &map,
                           const Layout &initial,
                           const WireAnchors &anchors = {});

} // namespace qra

#endif // QRA_TRANSPILE_ROUTER_HH
