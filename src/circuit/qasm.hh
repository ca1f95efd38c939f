/**
 * @file
 * OpenQASM 2.0 export and a subset importer.
 *
 * The importer accepts the dialect the exporter writes: one qreg, one
 * creg, the QRA gate set, `measure q[i] -> c[j]`, `reset`, `barrier`,
 * line comments, and parameter expressions over numbers and `pi` with
 * + - * / and parentheses. Statements end at `;` and may share a line
 * or span several; a `//` comment runs to the end of its line.
 *
 * One reader serves both entry points: it walks the text once, in
 * order, and a `// qra:` comment directive takes effect after every
 * statement that ends before it in the text (statements earlier on
 * the same line included, a statement it interrupts excluded).
 */

#ifndef QRA_CIRCUIT_QASM_HH
#define QRA_CIRCUIT_QASM_HH

#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hh"

namespace qra {

/**
 * Serialise @p circuit as OpenQASM 2.0 text.
 *
 * PostSelect directives have no QASM equivalent and are emitted as
 * `// qra:postselect q[i] == v` comment lines, which the importer
 * understands.
 */
std::string toQasm(const Circuit &circuit);

/**
 * Parse OpenQASM 2.0 text into a Circuit. `// qra:postselect` comment
 * directives become PostSelect instructions; other `// qra:`
 * directives are ignored (see parseAnnotatedQasm).
 * @throws QasmError on any syntax or semantic problem.
 */
Circuit fromQasm(const std::string &text);

namespace detail {

/** A `// qra:` directive other than postselect, as the reader met it. */
struct QasmDirective
{
    /** Trimmed text after "qra:", e.g. "assert-entangled q[0], q[1]". */
    std::string_view body;
    /** Instructions emitted before it: the index it applies before. */
    std::size_t opIndex;
};

/**
 * The reader behind fromQasm and parseAnnotatedQasm. When
 * @p directives is non-null, every non-postselect `// qra:` directive
 * is appended to it in text order (bodies are views into @p text).
 * @throws QasmError as fromQasm.
 */
Circuit readQasm(std::string_view text,
                 std::vector<QasmDirective> *directives);

} // namespace detail

} // namespace qra

#endif // QRA_CIRCUIT_QASM_HH
