/**
 * @file
 * The compile-pass interface and the shared CompileContext.
 *
 * A Pass is one stage of the compile pipeline (decompose, layout,
 * route, inject assertions, ...). Passes communicate exclusively
 * through the CompileContext: the working circuit, the evolving
 * device layout, assertion bookkeeping, and per-pass statistics. The
 * PassManager runs passes in order and derives a stable pipeline
 * fingerprint from each pass's name and configuration, which the
 * runtime uses as (part of) its preparation-cache key.
 */

#ifndef QRA_COMPILE_PASS_HH
#define QRA_COMPILE_PASS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assertions/injector.hh"
#include "circuit/circuit.hh"
#include "transpile/coupling_map.hh"
#include "transpile/layout.hh"

namespace qra {
namespace compile {

namespace analysis {
struct CircuitAnalysis;
} // namespace analysis

/** Statistics one pass execution leaves behind. */
struct PassStats
{
    std::string name;
    /** Wall-clock seconds the pass took. */
    double seconds = 0.0;
    std::size_t opsBefore = 0;
    std::size_t opsAfter = 0;
    /** Optional one-line detail, e.g. "2 swaps inserted". */
    std::string note;
};

/** Shared state threaded through a pipeline run. */
struct CompileContext
{
    /** The circuit being compiled (passes rewrite it in place). */
    Circuit circuit{1};

    /** Target device connectivity; null for device-free pipelines. */
    const CouplingMap *coupling = nullptr;

    /** Virtual->physical assignment chosen by a layout pass. */
    std::optional<Layout> initialLayout;

    /** Layout after routing (tracks inserted SWAPs). */
    std::optional<Layout> finalLayout;

    /**
     * Set by injection passes; decode bookkeeping for Results.
     * Mutable shared ownership so single-purpose pipelines (the
     * instrument() wrapper) can move the result out instead of
     * deep-copying; long-lived holders (the JobQueue cache) store it
     * as a pointer-to-const.
     */
    std::shared_ptr<InstrumentedCircuit> instrumented;

    // Aggregate transpile statistics (mirrors TranspileResult).
    std::size_t insertedSwaps = 0;
    std::size_t reversedCx = 0;
    std::size_t cancelledGates = 0;
    std::size_t mergedRotations = 0;

    /**
     * Static-analysis result published by AnalyzePass; null when the
     * pipeline has no analysis stage. Shared with the JobQueue cache
     * so repeated submissions reuse the facts.
     */
    std::shared_ptr<const analysis::CircuitAnalysis> analysis;

    /** One entry per executed pass, in pipeline order. */
    std::vector<PassStats> passStats;

    /**
     * Set by the running pass to annotate its own PassStats entry
     * (the PassManager moves it into place after the pass returns).
     */
    std::string pendingNote;
};

/** One composable stage of the compile pipeline. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable identifier, e.g. "route"; used in dumps and stats. */
    virtual std::string name() const = 0;

    /**
     * Fold this pass's configuration into fingerprint state @p h.
     * Two pass instances that transform circuits identically must
     * produce the same fold; anything that changes the output (an
     * option, an assertion spec) must change it. The default folds
     * nothing beyond the name (which the PassManager adds).
     */
    virtual std::uint64_t fingerprint(std::uint64_t h) const
    {
        return h;
    }

    /** One-line configuration summary for --dump-pipeline. */
    virtual std::string describe() const { return name(); }

    /** Transform @p ctx. @throws Error subclasses on invalid input. */
    virtual void run(CompileContext &ctx) const = 0;
};

using PassPtr = std::shared_ptr<const Pass>;

} // namespace compile
} // namespace qra

#endif // QRA_COMPILE_PASS_HH
