/**
 * @file
 * Assertion directives embedded in OpenQASM comments, so existing
 * QASM programs can be instrumented without touching the code that
 * generated them. Syntax (a `//` comment, to the end of its line):
 *
 *   // qra:assert-classical q[0] == 0
 *   // qra:assert-classical q[2], q[1] == 10
 *   // qra:assert-superposition q[1] +
 *   // qra:assert-superposition q[1] -
 *   // qra:assert-entangled q[0], q[1]
 *   // qra:assert-entangled q[0], q[1], q[2] chain
 *   // qra:assert-entangled q[0], q[1] odd
 *
 * The directive applies at its position in the text: the check runs
 * after every statement that ends (at its `;`) before the directive,
 * including statements earlier on the same line, and before every
 * statement that ends after it. The QASM reader (circuit/qasm.hh)
 * scans the text once and reports each directive with the number of
 * instructions emitted before it.
 */

#ifndef QRA_ASSERTIONS_DIRECTIVES_HH
#define QRA_ASSERTIONS_DIRECTIVES_HH

#include <string>
#include <vector>

#include "assertions/injector.hh"
#include "circuit/circuit.hh"

namespace qra {

/** A parsed QASM program together with its assertion directives. */
struct AnnotatedProgram
{
    Circuit payload{1};
    std::vector<AssertionSpec> specs;
};

/**
 * Parse QASM text with qra:assert-* comment directives.
 *
 * The payload is the plain circuit (directives stripped, postselects
 * kept); each directive becomes an AssertionSpec whose insertAt is the
 * number of payload instructions before it. Payload errors are
 * reported before directive errors.
 *
 * @throws QasmError on malformed programs or directives.
 */
AnnotatedProgram parseAnnotatedQasm(const std::string &text);

} // namespace qra

#endif // QRA_ASSERTIONS_DIRECTIVES_HH
