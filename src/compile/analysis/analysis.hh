/**
 * @file
 * Static circuit analysis: a forward abstract interpretation over the
 * circuit IR with three cooperating domains.
 *
 *  1. Stabilizer-prefix tracker — the Clifford prefix of each qubit
 *     group is simulated on an Aaronson-Gottesman tableau
 *     (StabilizerState); a group is abandoned lazily at its first
 *     non-Clifford gate (or measurement/reset), and a GroupFact is
 *     emitted at that cut point classifying the group's state
 *     (known basis value, uniform superposition, GHZ-class pair).
 *
 *  2. Separability partition — union-find over qubit interaction,
 *     split-aware: consecutive gate runs on one qubit pair are
 *     multiplied out and classified with kernels::classify2q, so a
 *     CX·CX cancellation (or a run collapsing to a SWAP or a
 *     separable diagonal) never merges the groups. SWAP/permutation
 *     effects are tracked exactly through a wire->slot indirection,
 *     and measurement/reset return a wire to its own group.
 *
 *  3. Known-basis-state frontier — constant propagation of classical
 *     bit values from |0...0> through X/Y/SWAP/CX/CCX/diagonal gates
 *     (which survive non-Clifford diagonals like T where the tableau
 *     gives up).
 *
 * analyzeCircuit keeps only what its readers use: the cut-point facts
 * and the frontier (AutoAssertPass, AnalyzePass's note), the final
 * partition and the tableau's gate count. The partition at an earlier
 * boundary is not kept; groupIdsAt re-derives it for the few
 * boundaries lint asks about.
 */

#ifndef QRA_COMPILE_ANALYSIS_ANALYSIS_HH
#define QRA_COMPILE_ANALYSIS_ANALYSIS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hh"

namespace qra {
namespace compile {
namespace analysis {

/** Classification of one qubit group at a cut point. */
enum class GroupState
{
    /** Every qubit deterministic; `basisBits` holds the values. */
    KnownBasis,
    /** Single qubit in |+> or |-> (`minusPhase` distinguishes). */
    UniformSuperposition,
    /**
     * GHZ-class complement-pair state a|x> + b|~x>: every even-size
     * subset parity is fixed, so the paper's entanglement check
     * passes deterministically. `oddParity` is set for the 2-qubit
     * odd-parity (Psi) pair; even parity otherwise (x = 0...0/1...1).
     */
    GhzLike,
    /** Anything else the tableau could not put a name to. */
    Other,
};

/** Printable name of a group state. */
const char *groupStateName(GroupState state);

/**
 * One qubit group's state at the cut point where its Clifford prefix
 * ended (first non-Clifford gate, first measurement/reset, or the end
 * of the circuit). A check inserted at `cutIndex` runs after every
 * instruction of the prefix and before whatever ended it.
 */
struct GroupFact
{
    /** Group members (payload wire indices), ascending. */
    std::vector<Qubit> qubits;
    /** Payload instruction index the facts hold *before*. */
    std::size_t cutIndex = 0;
    /** Clifford gates the tableau applied to this group. */
    std::size_t prefixGates = 0;
    GroupState state = GroupState::Other;
    /** KnownBasis: bit j = deterministic value of qubits[j]. */
    std::uint64_t basisBits = 0;
    /** UniformSuperposition: true for |->, false for |+>. */
    bool minusPhase = false;
    /** GhzLike: true for the 2-qubit odd-parity pair. */
    bool oddParity = false;
};

/**
 * A known-basis frontier candidate: qubit `qubit` provably holds
 * basis value `value` up to (not including) payload instruction
 * `cutIndex`, after `opsTouched` unitary gates acted on it.
 */
struct FrontierFact
{
    Qubit qubit = 0;
    std::size_t cutIndex = 0;
    int value = 0;
    std::size_t opsTouched = 0;
};

/**
 * What one forward pass over the circuit established. The
 * JobQueue prepare cache holds one per prepared auto-assert job, so
 * everything here is O(facts + n), never O(ops x n).
 */
struct CircuitAnalysis
{
    std::size_t numQubits = 0;
    std::size_t numOps = 0;

    /** Cut-point facts, ascending cutIndex. */
    std::vector<GroupFact> facts;

    /** Known-basis frontier candidates (at most a few per qubit). */
    std::vector<FrontierFact> frontier;

    /** Final separability partition, one sorted group per entry. */
    std::vector<std::vector<Qubit>> finalGroups;

    /** Total Clifford gates the tableau executed across all groups. */
    std::size_t cliffordPrefixGates = 0;
};

/**
 * Run the three-domain forward analysis over @p circuit.
 * Deterministic: equal circuits produce equal analyses.
 */
CircuitAnalysis analyzeCircuit(const Circuit &circuit);

/**
 * The separability partition of analyzeCircuit at each of
 * @p boundaries: result[k][q] is the smallest wire index in q's group
 * *before* instruction boundaries[k] (clamped to the circuit's size).
 * Two qubits are provably unentangled at a boundary iff their ids
 * differ. The pair-run refinement is taken over the whole circuit, so
 * a boundary inside a cancelling gate run (e.g. between the two gates
 * of a CX·CX pair) sees the run's net effect: the qubits stay split.
 * One walk over the circuit serves every boundary.
 */
std::vector<std::vector<std::uint32_t>>
groupIdsAt(const Circuit &circuit, const std::vector<std::size_t> &boundaries);

} // namespace analysis
} // namespace compile
} // namespace qra

#endif // QRA_COMPILE_ANALYSIS_ANALYSIS_HH
