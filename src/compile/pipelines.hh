/**
 * @file
 * Canonical pipelines: the declarative recipes behind transpile(),
 * instrument() and the runtime's JobQueue::prepare. Call sites build
 * a PassManager from options instead of hardcoding stage order, and
 * key caches on PassManager::fingerprint().
 */

#ifndef QRA_COMPILE_PIPELINES_HH
#define QRA_COMPILE_PIPELINES_HH

#include <vector>

#include "assertions/injector.hh"
#include "compile/analysis/auto_assert.hh"
#include "compile/pass_manager.hh"
#include "transpile/coupling_map.hh"

namespace qra {
namespace compile {

/** Where a prepared job's assertion checks come from. */
enum class InjectionStrategy
{
    /** The spec's own assertions (none = an uninstrumented job). */
    Explicit,

    /**
     * Derive the checks statically instead of taking them from the
     * spec: AnalyzePass + AutoAssertPass run the three-domain
     * analysis (stabilizer prefix, separability, known-basis
     * frontier) and weave generated checks — plus any user specs.
     * See compile/analysis/auto_assert.hh.
     */
    AutoGenerate,
};

/**
 * The device pipeline behind transpile():
 * decompose(ccx) -> layout -> route -> decompose(swap) ->
 * direction-fix -> optimize.
 */
PassManager transpilePipeline();

/** The single-pass pipeline behind instrument(). */
PassManager instrumentPipeline(std::vector<AssertionSpec> specs,
                               const InstrumentOptions &options = {});

/** Everything JobQueue::prepare needs to build its pipeline. */
struct PrepareSpec
{
    std::vector<AssertionSpec> assertions;
    InstrumentOptions instrumentOptions;
    InjectionStrategy injection = InjectionStrategy::Explicit;
    /** Budget for InjectionStrategy::AutoGenerate. */
    AutoAssertOptions autoAssert;
    /** Not owned; null = no device transpilation. */
    const CouplingMap *coupling = nullptr;
};

/**
 * Build the preparation pipeline for @p spec declaratively, as one
 * sequence: [analyze ->] layout -> (instrument | auto-assert) ->
 * decompose(ccx) -> route -> decompose(swap) -> direction-fix ->
 * optimize. The layout places the payload alone and routing
 * binds each check's ancillas next to its targets. Stages appear only
 * when the spec asks for them (the device stages only with a coupling
 * map, instrument only with assertions), so inert options can never
 * fragment a cache keyed on the pipeline fingerprint.
 */
PassManager preparePipeline(const PrepareSpec &spec);

/**
 * Run preparePipeline(spec) over @p payload, naming the result as
 * instrument() then transpile() would ("payload+asserts@5q").
 */
CompileContext prepare(Circuit payload, const PrepareSpec &spec);

/**
 * Same, over an already-built @p pipeline (must be
 * preparePipeline(spec)); lets callers that fingerprinted the
 * pipeline for a cache key reuse it instead of building it twice.
 */
CompileContext prepare(Circuit payload, const PrepareSpec &spec,
                       const PassManager &pipeline);

} // namespace compile
} // namespace qra

#endif // QRA_COMPILE_PIPELINES_HH
