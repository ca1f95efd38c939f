/**
 * @file
 * The shared post-selecting shot loop of the per-shot simulators
 * (trajectory, which also runs the statevector simulator's
 * non-terminal circuits, and stabilizer).
 *
 * The loop evolves a circuit's shot-independent prefix once: every
 * step before the first one that can draw from the RNG gives every
 * attempt the same state, so attempts start from a copy of it. The
 * split never moves counts, because the prefix draws nothing.
 */

#ifndef QRA_SIM_SHOT_UTIL_HH
#define QRA_SIM_SHOT_UTIL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

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
 * A per-shot program (circuit ops or plan entries) split before its
 * first step that can draw from the RNG. `prefix` draws nothing and
 * cannot discard a shot, so every attempt would evolve it to the same
 * state; `rest` starts with the first drawing step, or is empty.
 */
template <typename Step>
struct SplitSteps
{
    std::span<const Step> prefix;
    std::span<const Step> rest;
};

/** Split @p steps before the first one for which @p draws holds. */
template <typename Step, typename Draws>
SplitSteps<Step>
splitAtFirstDraw(const std::vector<Step> &steps, Draws &&draws)
{
    const std::span<const Step> all(steps);
    const auto first = std::find_if(all.begin(), all.end(), draws);
    const auto k = static_cast<std::size_t>(first - all.begin());
    return {all.first(k), all.subspan(k)};
}

namespace detail {

/**
 * The state each shot attempt starts from. With a prefix, the prefix
 * is evolved once and each attempt copy-assigns it into one working
 * state reused across attempts (two states live); without one, each
 * attempt constructs a fresh `State(num_qubits)` (one state live).
 */
template <typename State>
class AttemptStates
{
  public:
    template <typename Step, typename Shot>
    AttemptStates(std::size_t num_qubits, const SplitSteps<Step> &steps,
                  Shot &shot)
        : numQubits_(num_qubits)
    {
        if (steps.prefix.empty())
            return;
        prefix_.emplace(num_qubits);
        std::uint64_t reg = 0;
        shot(*prefix_, steps.prefix, reg);
    }

    /** The state of a new attempt, evolved through the prefix. */
    State &next()
    {
        if (!prefix_)
            work_.emplace(numQubits_);
        else if (work_)
            *work_ = *prefix_;
        else
            work_.emplace(*prefix_);
        return *work_;
    }

  private:
    std::size_t numQubits_;
    std::optional<State> prefix_;
    std::optional<State> work_;
};

} // namespace detail

/**
 * Run shot attempts of @p circuit until @p shots are kept.
 * @p shot(state, steps, reg) applies `steps` to `state`, writes the
 * classical register into `reg` and returns false when post-selection
 * discarded the shot. The prefix of @p steps is evolved once; each
 * attempt starts from a copy of it and runs `steps.rest`. Counts are
 * those of evolving every attempt from `State(circuit.numQubits())`
 * through all steps: the prefix draws no random number, so the RNG
 * stream and every state are unchanged. Discarded shots are
 * re-attempted, up to postSelectAttemptBudget(shots) attempts. The
 * Result carries the kept/attempted ratio as its retained fraction;
 * zero shots return an empty Result with fraction 1 and evolve
 * nothing.
 *
 * @throws SimulationError when the budget runs out first.
 */
template <typename State, typename Step, typename Shot>
Result
runPostSelectedShots(const Circuit &circuit, std::size_t shots,
                     const SplitSteps<Step> &steps, Shot &&shot)
{
    Result result(circuit.numClbits());
    if (shots == 0)
        return result;
    detail::AttemptStates<State> states(circuit.numQubits(), steps, shot);
    std::size_t attempted = 0;
    std::size_t kept = 0;
    const std::size_t max_attempts = postSelectAttemptBudget(shots);
    while (kept < shots && attempted < max_attempts) {
        ++attempted;
        std::uint64_t reg = 0;
        if (!shot(states.next(), steps.rest, reg))
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
 * (same contract and prefix reuse as runPostSelectedShots), trying at
 * most 1000 times.
 *
 * @throws SimulationError when every attempt was discarded.
 */
template <typename State, typename Step, typename Shot>
State
firstKeptState(const Circuit &circuit, const SplitSteps<Step> &steps,
               Shot &&shot)
{
    detail::AttemptStates<State> states(circuit.numQubits(), steps, shot);
    for (int attempt = 0; attempt < 1000; ++attempt) {
        State &state = states.next();
        std::uint64_t reg = 0;
        if (shot(state, steps.rest, reg))
            return std::move(state);
    }
    throw SimulationError("post-selection discarded every attempt");
}

} // namespace qra

#endif // QRA_SIM_SHOT_UTIL_HH
