#include "replay.hh"

#include <algorithm>

namespace e2e {

using namespace qra;

double
LayerTotals::sum() const
{
    double total = parse + analysis + prepare + lower + merge + decode;
    for (const auto &[name, seconds] : run)
        total += seconds;
    return total;
}

std::string
runLayerName(const std::string &backend)
{
    if (backend == "stabilizer")
        return "stabilizer.run";
    return "sim." + backend + ".run";
}

Replayer::Replayer(const runtime::ExecutionEngine &engine)
    : engine_(engine), pool_(engine.threads())
{
}

Result
Replayer::replay(const Workload &workload, const JobInput &job,
                 LayerTotals &totals)
{
    obs::Span job_span("e2e", "replay_job");
    AnnotatedProgram program;
    {
        obs::TimedSpan span("layer", "circuit.parse");
        program = parseAnnotatedQasm(job.qasm);
        totals.parse += span.stop();
    }
    const runtime::JobSpec spec = makeSpec(workload, job, program);

    auto it = prepared_.find(job.qasm);
    if (it == prepared_.end()) {
        std::shared_ptr<const compile::analysis::CircuitAnalysis> facts;
        if (spec.injection == compile::InjectionStrategy::AutoGenerate) {
            obs::TimedSpan span("layer", "compile.analysis");
            facts = std::make_shared<compile::analysis::CircuitAnalysis>(
                compile::analysis::analyzeCircuit(spec.circuit));
            totals.analysis += span.stop();
        }
        obs::TimedSpan span("layer", "compile.prepare");
        // The queue's pipeline, minus the analyze pass whose result
        // the call above already published into the context.
        const compile::PassManager full =
            compile::preparePipeline(runtime::prepareSpec(spec));
        compile::PassManager pipeline;
        for (const compile::PassPtr &pass : full.passes())
            if (!(facts && pass->name() == "analyze"))
                pipeline.add(pass);
        compile::CompileContext ctx;
        ctx.circuit = spec.circuit;
        ctx.coupling = spec.coupling;
        ctx.analysis = facts;
        pipeline.run(ctx);
        Prepared entry;
        entry.insertedSwaps = ctx.insertedSwaps;
        entry.insertedGates = ctx.circuit.size() - spec.circuit.size();
        entry.circuit = std::make_shared<const Circuit>(std::move(ctx.circuit));
        entry.instrumented = ctx.instrumented;
        totals.prepare += span.stop();
        it = prepared_.emplace(job.qasm, std::move(entry)).first;
    }
    const Prepared &prepared = it->second;
    if (!prepared.instrumented)
        throw Error("replay: job has no assertion checks to decode");

    const runtime::BackendPtr backend = engine_.registry().resolve(
        spec.backend, *prepared.circuit, spec.noise);
    const std::vector<runtime::Shard> plan =
        engine_.shardPlan(spec.shots, spec.seed, *backend);
    // The engine's lane rule (EngineOptions::intraThreads): leftover
    // pool capacity split across the job's shards.
    const runtime::EngineOptions &options = engine_.options();
    std::size_t lanes = options.intraThreads;
    if (lanes == 0)
        lanes = std::max<std::size_t>(1, engine_.threads() / plan.size());
    lanes = std::min(lanes, engine_.threads());

    // Each shard runs on a worker of the replay's own pool, under the
    // scopes the engine installs, exactly as an engine shard does: a
    // shard's lanes then share that pool with the shard's own thread.
    const std::string &name = backend->name();
    const std::string layer = runLayerName(name);
    const bool lowers = name == "statevector" || name == "trajectory";
    std::vector<Result> parts;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        parts.push_back(pool_.submit([&, i]() {
            kernels::ParallelScope parallel(&pool_, lanes);
            kernels::FusionScope fusion(options.fusionLevel);
            kernels::simd::TierScope tier(options.simdTier);
            kernels::CacheBlockScope block(options.cacheBlockBytes);
            kernels::PlanCacheScope cache(&artifacts_);
            if (i == 0 && lowers) {
                // The lowering the backend would otherwise do inside
                // its run (the PlanCache then serves it the plan).
                obs::TimedSpan span("layer", "sim.kernels.lower");
                if (name == "statevector")
                    artifacts_.plan(*prepared.circuit,
                                    options.fusionLevel);
                else
                    artifacts_.trajectoryPlan(*prepared.circuit,
                                              spec.noise,
                                              options.fusionLevel);
                totals.lower += span.stop();
            }
            obs::TimedSpan span("layer", layer);
            Result part = backend->run(*prepared.circuit, plan[i].shots,
                                       plan[i].seed, spec.noise);
            totals.run[layer] += span.stop();
            return part;
        }).get());
    }

    Result merged(prepared.circuit->numClbits());
    {
        obs::TimedSpan span("layer", "sim.result.merge");
        for (const Result &part : parts)
            merged.merge(part);
        totals.merge += span.stop();
    }
    {
        obs::TimedSpan span("layer", "assertions.decode");
        [[maybe_unused]] const AssertionReport report =
            analyze(*prepared.instrumented, merged);
        totals.decode += span.stop();
    }

    totals.shards += plan.size();
    totals.lanes += lanes * plan.size();
    totals.insertedSwaps += prepared.insertedSwaps;
    totals.insertedGates += prepared.insertedGates;
    totals.checks += prepared.instrumented->checks().size();
    return merged;
}

} // namespace e2e
