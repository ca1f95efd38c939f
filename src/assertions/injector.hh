/**
 * @file
 * Assertion instrumentation: weave assertion checks into a payload
 * circuit, allocating ancilla qubits and classical bits, and keep the
 * bookkeeping needed to decode results afterwards.
 */

#ifndef QRA_ASSERTIONS_INJECTOR_HH
#define QRA_ASSERTIONS_INJECTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "assertions/assertion.hh"
#include "circuit/circuit.hh"

namespace qra {

/** One requested check: which assertion, where, on which qubits. */
struct AssertionSpec
{
    std::shared_ptr<const Assertion> assertion;

    /** Qubits under test, in the payload circuit's numbering. */
    std::vector<Qubit> targets;

    /**
     * Payload instruction index *before* which the check runs;
     * indices >= payload size mean "at the end".
     */
    std::size_t insertAt = 0;

    /**
     * Emit the check this many times back to back (fresh ancillas
     * each) and decide pass/fail by majority vote. Because a passing
     * check projects the targets into the asserted subspace, the
     * repeats are idempotent on the quantum side; the vote averages
     * out *classical* ancilla readout errors, trading ancillas for a
     * lower false-positive rate on NISQ devices.
     */
    std::size_t repetitions = 1;

    /** Optional diagnostic label carried into reports. */
    std::string label;
};

/** Knobs of the instrumentation pass. */
struct InstrumentOptions
{
    /**
     * Reuse a single ancilla pool across sequential checks by
     * resetting ancillas after measurement. Cuts qubit cost from
     * sum(ancillas) to max(ancillas); requires a backend that
     * supports operating on measured qubits: density up to its
     * record-branch cap, trajectory past it.
     */
    bool reuseAncillas = false;

    /** Wrap each check in barriers (fences the optimiser). */
    bool barriers = true;
};

class InstrumentedCircuit;

namespace detail {
/** The weaving primitive behind instrument() and the compile passes. */
InstrumentedCircuit weaveAssertions(const Circuit &payload,
                                    const std::vector<AssertionSpec> &specs,
                                    const InstrumentOptions &options);
} // namespace detail

/** An instrumented circuit plus decode bookkeeping. */
class InstrumentedCircuit
{
  public:
    /** One materialised check (possibly a voted repetition group). */
    struct Check
    {
        AssertionSpec spec;
        /** All ancillas across repetitions, repetition-major. */
        std::vector<Qubit> ancillas;
        /** All readout clbits across repetitions, repetition-major. */
        std::vector<Clbit> clbits;
        /** Clbits per single repetition. */
        std::size_t clbitsPerRepetition = 0;
    };

    const Circuit &circuit() const { return circuit_; }
    Circuit &circuit() { return circuit_; }

    /** Width of the payload's original classical register. */
    std::size_t payloadClbits() const { return payloadClbits_; }

    /** Number of payload qubits (ancillas sit above this index). */
    std::size_t payloadQubits() const { return payloadQubits_; }

    const std::vector<Check> &checks() const { return checks_; }

    /** Register-value mask covering every assertion clbit. */
    std::uint64_t assertionMask() const;

    /** True iff every check passed in register value @p reg. */
    bool passed(std::uint64_t reg) const;

    /** True iff check @p index passed in register value @p reg. */
    bool checkPassed(std::size_t index, std::uint64_t reg) const;

    /** Payload bits of @p reg (assertion bits stripped). */
    std::uint64_t payloadBits(std::uint64_t reg) const;

  private:
    friend InstrumentedCircuit
    detail::weaveAssertions(const Circuit &,
                            const std::vector<AssertionSpec> &,
                            const InstrumentOptions &);

    Circuit circuit_{1};
    std::size_t payloadClbits_ = 0;
    std::size_t payloadQubits_ = 0;
    std::vector<Check> checks_;
};

/**
 * Weave @p specs into @p payload.
 *
 * Ancillas are appended above the payload qubits; assertion clbits
 * above the payload clbits. Checks at the same insertion point run in
 * spec order. @throws AssertionError on malformed specs.
 *
 * Thin wrapper over the canonical compile::instrumentPipeline(); the
 * weaving itself lives in detail::weaveAssertions, which the compile
 * passes call directly.
 */
InstrumentedCircuit instrument(const Circuit &payload,
                               const std::vector<AssertionSpec> &specs,
                               const InstrumentOptions &options = {});

} // namespace qra

#endif // QRA_ASSERTIONS_INJECTOR_HH
