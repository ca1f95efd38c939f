/**
 * @file
 * Minimal logging for the QRA library.
 *
 * The library logs warnings on stderr, one line each, e.g.
 * `[qra:warn] ignoring invalid QRA_SIMD value 'x'`. The `QRA_LOG`
 * environment variable (debug|info|warn|silent) is read once, at
 * startup: `silent` suppresses every line, and the other three, like
 * the default, let warnings through.
 */

#ifndef QRA_COMMON_LOGGING_HH
#define QRA_COMMON_LOGGING_HH

#include <string>

namespace qra {

/** Emit one warning line (no newline needed) on stderr. Thread-safe. */
void logWarn(const std::string &msg);

} // namespace qra

#endif // QRA_COMMON_LOGGING_HH
