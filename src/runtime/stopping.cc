#include "runtime/stopping.hh"

#include <sstream>

#include "common/error.hh"
#include "common/strings.hh"
#include "stats/distance.hh"

namespace qra {
namespace runtime {

std::string
StoppingStatus::str() const
{
    std::ostringstream os;
    os << "wave " << wave << ": " << shotsDone << "/" << shotsRequested
       << " shots, estimate " << formatPercent(estimate) << " +/- "
       << formatPercent(halfWidth)
       << (converged ? " (converged)" : "")
       << (cancelled ? " (cancelled)" : "");
    return os.str();
}

StoppingStatus
evaluateStopping(const StoppingRule &rule, const Result &partial,
                 const InstrumentedCircuit *instrumented)
{
    // Count failing shots straight off the raw counts; the predicate
    // is the one AssertionReport::analyze applies, so the estimate
    // equals the report's any-error rate over these shots.
    if (instrumented == nullptr)
        throw ValueError("any-error stopping rule needs an "
                         "instrumented circuit (assertions)");
    std::size_t matched = 0;
    for (const auto &[reg, n] : partial.rawCounts())
        if (!instrumented->passed(reg))
            matched += n;

    StoppingStatus status;
    status.shotsDone = partial.shots();
    if (status.shotsDone > 0)
        status.estimate = static_cast<double>(matched) /
                          static_cast<double>(status.shotsDone);
    status.halfWidth =
        stats::wilsonHalfWidth(status.estimate, status.shotsDone);
    status.converged = rule.enabled() &&
                       status.halfWidth <= rule.targetHalfWidth &&
                       status.shotsDone >= rule.minShots;
    return status;
}

} // namespace runtime
} // namespace qra
