/**
 * @file
 * Circuit lint: structured warnings read off the circuit and its
 * assertion specs, catching broken circuits before they burn simulator
 * time.
 *
 * Warning codes:
 *   QRA-L001  qubit is gated but never measured, asserted, or
 *             post-selected — its work is unobservable
 *   QRA-L002  single-qubit gate after the qubit's final measurement
 *             (dead code: nothing downstream can observe it)
 *   QRA-L003  entanglement assertion whose targets are provably
 *             unentangled at the insertion point — the check is
 *             vacuous (a product state passes a parity check)
 *   QRA-L004  measured qubit reused in a multi-qubit gate without an
 *             intervening reset (collapsed ancilla leaks its outcome)
 *   QRA-L005  circuit cannot be routed on the coupling map under any
 *             layout (too many qubits, or an interaction component
 *             larger than the largest connected device component)
 */

#ifndef QRA_COMPILE_ANALYSIS_LINT_HH
#define QRA_COMPILE_ANALYSIS_LINT_HH

#include <string>
#include <vector>

#include "assertions/injector.hh"
#include "circuit/circuit.hh"
#include "transpile/coupling_map.hh"

namespace qra {
namespace compile {
namespace analysis {

/** Lint warning category. */
enum class LintCode
{
    NeverObserved,       ///< QRA-L001
    GateAfterMeasure,    ///< QRA-L002
    VacuousEntanglement, ///< QRA-L003
    ReuseWithoutReset,   ///< QRA-L004
    Unroutable,          ///< QRA-L005
};

/** Stable "QRA-Lxxx" identifier of @p code. */
const char *lintCodeName(LintCode code);

/** One structured lint finding. */
struct LintWarning
{
    static constexpr std::size_t kWholeCircuit =
        static_cast<std::size_t>(-1);

    LintCode code = LintCode::NeverObserved;
    /** Instruction the warning anchors to; kWholeCircuit if none. */
    std::size_t opIndex = kWholeCircuit;
    /** Qubits involved, ascending. */
    std::vector<Qubit> qubits;
    std::string message;

    /** Render as "QRA-L001 [q0 @op3] message". */
    std::string str() const;
};

/**
 * Lint @p circuit. @p specs are the assertion specs that will be
 * woven (their targets count as observed and their entanglement
 * checks are validated against the separability partition at their
 * insertion points, see groupIdsAt); @p coupling enables the
 * routability check (null skips it). Deterministic; warnings are
 * ordered by (code, opIndex, qubit).
 */
std::vector<LintWarning>
lintCircuit(const Circuit &circuit,
            const std::vector<AssertionSpec> &specs = {},
            const CouplingMap *coupling = nullptr);

} // namespace analysis
} // namespace compile
} // namespace qra

#endif // QRA_COMPILE_ANALYSIS_LINT_HH
