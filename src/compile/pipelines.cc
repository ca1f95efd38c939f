#include "compile/pipelines.hh"

#include "compile/passes.hh"

namespace qra {
namespace compile {

namespace {

/** decompose(ccx) — CCX must be lowered before routing. */
PassPtr
ccxLowering()
{
    DecomposeOptions opts;
    opts.decomposeSwap = false; // router inserts swaps; keep user's
    opts.decomposeCcx = true;
    return std::make_shared<DecomposePass>(opts);
}

/** decompose(swap) — lower router-inserted SWAPs to CX triplets. */
PassPtr
swapLowering()
{
    DecomposeOptions opts;
    opts.decomposeSwap = true;
    opts.decomposeCcx = false;
    return std::make_shared<DecomposePass>(opts);
}

/** The post-routing device stages shared by every pipeline. */
void
addPostRoutingStages(PassManager &pm)
{
    pm.add(swapLowering());
    pm.add(std::make_shared<DirectionFixPass>());
    pm.add(std::make_shared<OptimizePass>());
}

} // namespace

PassManager
transpilePipeline()
{
    PassManager pm;
    pm.add(ccxLowering());
    pm.add(std::make_shared<LayoutPass>());
    pm.add(std::make_shared<RoutingPass>());
    addPostRoutingStages(pm);
    return pm;
}

PassManager
instrumentPipeline(std::vector<AssertionSpec> specs,
                   const InstrumentOptions &options)
{
    PassManager pm;
    pm.add(std::make_shared<InstrumentPass>(std::move(specs), options));
    return pm;
}

PassManager
preparePipeline(const PrepareSpec &spec)
{
    PassManager pm;
    const bool autogen =
        spec.injection == InjectionStrategy::AutoGenerate;
    if (autogen)
        pm.add(std::make_shared<AnalyzePass>());
    if (spec.coupling != nullptr)
        pm.add(std::make_shared<LayoutPass>());
    // Weaving precedes any decomposition: AssertionSpec::insertAt
    // indexes *payload* instructions.
    if (autogen)
        pm.add(std::make_shared<AutoAssertPass>(
            spec.assertions, spec.instrumentOptions, spec.autoAssert));
    else if (!spec.assertions.empty())
        pm.add(std::make_shared<InstrumentPass>(
            spec.assertions, spec.instrumentOptions));
    if (spec.coupling != nullptr) {
        pm.add(ccxLowering());
        pm.add(std::make_shared<RoutingPass>());
        addPostRoutingStages(pm);
    }
    return pm;
}

CompileContext
prepare(Circuit payload, const PrepareSpec &spec)
{
    return prepare(std::move(payload), spec, preparePipeline(spec));
}

CompileContext
prepare(Circuit payload, const PrepareSpec &spec,
        const PassManager &pipeline)
{
    // Instrumentation suffixes "+asserts", device
    // transpilation suffixes "@<n>q" on top of whatever entered it.
    std::string base_name =
        spec.assertions.empty() ? payload.name()
                                : payload.name() + "+asserts";

    CompileContext ctx =
        pipeline.run(std::move(payload), spec.coupling);
    // Auto-generated checks earn the suffix only once they exist.
    if (spec.assertions.empty() && ctx.instrumented &&
        !ctx.instrumented->checks().empty())
        base_name += "+asserts";
    if (spec.coupling != nullptr)
        ctx.circuit.setName(base_name + "@" +
                            std::to_string(spec.coupling->numQubits()) +
                            "q");
    return ctx;
}

} // namespace compile
} // namespace qra
