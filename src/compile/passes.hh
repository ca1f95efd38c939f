/**
 * @file
 * The concrete compile passes: the five transpiler stages
 * (decompose, layout, route, direction-fix, optimise) re-expressed
 * over the Pass interface, plus assertion instrumentation as a pass.
 * Routing binds each check's ancillas next to the check's targets
 * (see RoutingPass).
 */

#ifndef QRA_COMPILE_PASSES_HH
#define QRA_COMPILE_PASSES_HH

#include "assertions/injector.hh"
#include "compile/pass.hh"
#include "transpile/decomposer.hh"

namespace qra {
namespace compile {

/** Gate decomposition (SWAP/CCX lowering). */
class DecomposePass : public Pass
{
  public:
    explicit DecomposePass(DecomposeOptions options)
        : options_(options)
    {
    }

    std::string name() const override { return "decompose"; }
    std::uint64_t fingerprint(std::uint64_t h) const override;
    std::string describe() const override;
    void run(CompileContext &ctx) const override;

  private:
    DecomposeOptions options_;
};

/** Initial virtual->physical placement (interaction-greedy). */
class LayoutPass : public Pass
{
  public:
    std::string name() const override { return "layout"; }
    std::uint64_t fingerprint(std::uint64_t h) const override;
    std::string describe() const override;
    void run(CompileContext &ctx) const override;
};

/**
 * SWAP insertion until every 2q gate is on a coupled pair. When the
 * context carries instrumentation, each check's ancillas are anchored
 * to its targets (the first check wins for an ancilla shared under
 * InstrumentOptions::reuseAncillas): an ancilla stays unbound until
 * routing reaches its check, then takes the free physical qubit
 * nearest the targets' current positions (see routeCircuit).
 */
class RoutingPass : public Pass
{
  public:
    std::string name() const override { return "route"; }
    void run(CompileContext &ctx) const override;
};

/** CNOT orientation fixing against directed couplings. */
class DirectionFixPass : public Pass
{
  public:
    std::string name() const override { return "direction-fix"; }
    void run(CompileContext &ctx) const override;
};

/** Peephole cancellation and rotation merging. */
class OptimizePass : public Pass
{
  public:
    std::string name() const override { return "optimize"; }
    void run(CompileContext &ctx) const override;
};

/**
 * Assertion instrumentation: weave checks into the working circuit
 * over *virtual* qubits, with ancillas appended above the payload
 * register. AssertionSpec::insertAt indexes payload instructions, so
 * this runs before any decomposition; on a device it runs after the
 * layout pass, which therefore places the payload alone, and the
 * routing pass places the ancillas.
 */
class InstrumentPass : public Pass
{
  public:
    InstrumentPass(std::vector<AssertionSpec> specs,
                   InstrumentOptions options)
        : specs_(std::move(specs)), options_(options)
    {
    }

    std::string name() const override { return "instrument"; }
    std::uint64_t fingerprint(std::uint64_t h) const override;
    std::string describe() const override;
    void run(CompileContext &ctx) const override;

  private:
    std::vector<AssertionSpec> specs_;
    InstrumentOptions options_;
};

/**
 * Stable semantic fingerprint of one assertion spec: assertion kind,
 * shape and description plus targets, insertion point and repetition
 * count. Two specs with equal fingerprints instrument identically, so
 * the preparation cache can key on this instead of object identity
 * (semantically identical resubmissions hit; a recycled pointer can
 * never alias a different assertion).
 */
std::uint64_t foldAssertionSpec(std::uint64_t h,
                                const AssertionSpec &spec);

/** Fingerprint fold of the instrumentation knobs. */
std::uint64_t foldInstrumentOptions(std::uint64_t h,
                                    const InstrumentOptions &options);

} // namespace compile
} // namespace qra

#endif // QRA_COMPILE_PASSES_HH
