/**
 * @file
 * The shared post-selecting shot loop of the per-shot simulators
 * (trajectory, which also runs the statevector simulator's
 * non-terminal circuits, and stabilizer).
 */

#ifndef QRA_SIM_SHOT_UTIL_HH
#define QRA_SIM_SHOT_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "circuit/circuit.hh"
#include "common/error.hh"
#include "sim/result.hh"

namespace qra {

/**
 * Retry budget for post-selection shot loops: 100 attempts per
 * requested shot plus slack, saturating instead of overflowing for
 * very large shot counts.
 */
inline std::size_t
postSelectAttemptBudget(std::size_t shots)
{
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    if (shots > (kMax - 1000) / 100)
        return kMax;
    return shots * 100 + 1000;
}

/**
 * Run shot attempts of @p circuit until @p shots are kept. Each
 * attempt evolves a fresh `State(circuit.numQubits())` through
 * @p shot(state, reg), which writes the classical register into `reg`
 * and returns false when post-selection discarded the shot; discarded
 * shots are re-attempted, up to postSelectAttemptBudget(shots)
 * attempts. The Result carries the kept/attempted ratio as its
 * retained fraction.
 *
 * @throws SimulationError when the budget runs out first.
 */
template <typename State, typename Shot>
Result
runPostSelectedShots(const Circuit &circuit, std::size_t shots,
                     Shot &&shot)
{
    Result result(circuit.numClbits());
    std::size_t attempted = 0;
    std::size_t kept = 0;
    const std::size_t max_attempts = postSelectAttemptBudget(shots);
    while (kept < shots && attempted < max_attempts) {
        ++attempted;
        State state(circuit.numQubits());
        std::uint64_t reg = 0;
        if (!shot(state, reg))
            continue;
        result.record(reg);
        ++kept;
    }
    if (kept < shots)
        throw SimulationError("post-selection discarded nearly every "
                              "shot; circuit is inconsistent");
    result.setRetainedFraction(static_cast<double>(kept) /
                               static_cast<double>(attempted));
    return result;
}

/**
 * The final state of the first kept attempt of @p shot on @p circuit
 * (same contract as in runPostSelectedShots), trying at most 1000
 * times.
 *
 * @throws SimulationError when every attempt was discarded.
 */
template <typename State, typename Shot>
State
firstKeptState(const Circuit &circuit, Shot &&shot)
{
    for (int attempt = 0; attempt < 1000; ++attempt) {
        State state(circuit.numQubits());
        std::uint64_t reg = 0;
        if (shot(state, reg))
            return state;
    }
    throw SimulationError("post-selection discarded every attempt");
}

} // namespace qra

#endif // QRA_SIM_SHOT_UTIL_HH
