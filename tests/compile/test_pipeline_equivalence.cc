/**
 * @file
 * Randomized legacy-parity suite: the pass pipelines must reproduce
 * the handwritten stage chains bit-for-bit — transpile() equals the
 * monolithic decompose/layout/route/direction-fix/optimize sequence,
 * prepare() equals layout/instrument/decompose/anchored-route/
 * direction-fix/optimize over the public primitives, and prepared
 * jobs produce identical counts at any thread/lane count. Plus
 * pass-fencing: assertion barriers still fence the optimizer when it
 * runs as a pass.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "assertions/superposition_assertion.hh"
#include "compile/passes.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"
#include "runtime/job_queue.hh"
#include "testutil.hh"
#include "transpile/decomposer.hh"
#include "transpile/direction_fixer.hh"
#include "transpile/optimizer.hh"
#include "transpile/router.hh"
#include "transpile/transpiler.hh"

namespace qra {
namespace {

using namespace qra::runtime;

Circuit
randomCircuit(std::size_t num_qubits, std::size_t num_gates, Rng &rng)
{
    Circuit c(num_qubits, num_qubits, "fuzz");
    for (std::size_t i = 0; i < num_gates; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        const Qubit r = static_cast<Qubit>(
            (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
        switch (rng.below(8)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.s(q); break;
          case 3: c.t(q); break;
          case 4: c.rz(rng.uniform() * 2 * M_PI, q); break;
          case 5: c.cx(q, r); break;
          case 6: c.cz(q, r); break;
          default: c.swap(q, r); break;
        }
    }
    c.measureAll();
    return c;
}

/** The pre-pass monolithic transpiler, stage by stage. */
Circuit
legacyTranspile(const Circuit &circuit, const CouplingMap &map,
                const TranspileOptions &options)
{
    DecomposeOptions dopts;
    dopts.decomposeSwap = false;
    dopts.decomposeCcx = true;
    const Circuit lowered = decompose(circuit, dopts);
    const Layout initial = options.useGreedyLayout
                               ? greedyLayout(lowered, map)
                               : trivialLayout(lowered, map);
    const RoutedCircuit routed = routeCircuit(lowered, map, initial);
    DecomposeOptions swap_opts;
    swap_opts.decomposeSwap = true;
    swap_opts.decomposeCcx = false;
    const Circuit swap_free = decompose(routed.circuit, swap_opts);
    const DirectionFixResult directed = fixDirections(swap_free, map);
    if (!options.optimize)
        return directed.circuit;
    return optimizeCircuit(directed.circuit).circuit;
}

AssertionSpec
entangledCheck(Qubit a, Qubit b, std::size_t at)
{
    AssertionSpec spec;
    spec.assertion = std::make_shared<EntanglementAssertion>(2);
    spec.targets = {a, b};
    spec.insertAt = at;
    return spec;
}

class EquivalenceSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EquivalenceSweep, PipelineMatchesLegacyStageChain)
{
    Rng rng(1000 + GetParam());
    const Circuit payload = randomCircuit(5, 24, rng);
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    for (const bool greedy : {true, false}) {
        for (const bool optimize : {true, false}) {
            TranspileOptions opts;
            opts.useGreedyLayout = greedy;
            opts.optimize = optimize;
            const TranspileResult result =
                transpile(payload, map, opts);
            const Circuit reference =
                legacyTranspile(payload, map, opts);
            // Bit-for-bit: same ops, operands, params, wiring.
            EXPECT_TRUE(result.circuit == reference)
                << "greedy=" << greedy << " optimize=" << optimize;
        }
    }
}

/**
 * prepare()'s device stages by hand: the layout places the payload
 * alone, then each check's ancillas bind next to its targets while
 * routing.
 */
Circuit
instrumentThenRoute(const Circuit &payload,
                    const std::vector<AssertionSpec> &specs,
                    const CouplingMap &map)
{
    const Layout initial = greedyLayout(payload, map);
    const InstrumentedCircuit inst = instrument(payload, specs);
    WireAnchors anchors(inst.circuit().numQubits());
    for (const InstrumentedCircuit::Check &check : inst.checks())
        for (const Qubit a : check.ancillas)
            if (anchors[a].empty())
                anchors[a] = check.spec.targets;
    DecomposeOptions dopts;
    dopts.decomposeSwap = false;
    dopts.decomposeCcx = true;
    const RoutedCircuit routed = routeCircuit(
        decompose(inst.circuit(), dopts), map, initial, anchors);
    DecomposeOptions swap_opts;
    swap_opts.decomposeSwap = true;
    swap_opts.decomposeCcx = false;
    const Circuit swap_free = decompose(routed.circuit, swap_opts);
    return optimizeCircuit(fixDirections(swap_free, map).circuit)
        .circuit;
}

TEST_P(EquivalenceSweep, PrepareMatchesStageChain)
{
    Rng rng(2000 + GetParam());
    // 3 payload qubits + 2 check ancillas fill the 5-qubit device.
    const Circuit payload = randomCircuit(3, 16, rng);
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    const std::vector<AssertionSpec> specs = {
        entangledCheck(0, 1, 8), entangledCheck(1, 2, 100)};

    compile::PrepareSpec prep;
    prep.assertions = specs;
    prep.coupling = &map;
    const compile::CompileContext ctx =
        compile::prepare(payload, prep);

    const InstrumentedCircuit inst = instrument(payload, specs);
    EXPECT_TRUE(ctx.circuit == instrumentThenRoute(payload, specs, map));
    ASSERT_NE(ctx.instrumented, nullptr);
    EXPECT_TRUE(ctx.instrumented->circuit() == inst.circuit());
    EXPECT_EQ(ctx.instrumented->checks().size(), specs.size());
}

TEST_P(EquivalenceSweep, CountsIdenticalAtAnyThreadAndLaneCount)
{
    Rng rng(3000 + GetParam());
    const Circuit payload = randomCircuit(4, 16, rng);
    const DeviceModel device = DeviceModel::ibmqx4();

    JobSpec spec;
    spec.circuit = payload;
    spec.shots = 512;
    spec.backend = "statevector";
    spec.seed = 11 + GetParam();
    spec.assertions = {entangledCheck(0, 1, 100)};
    spec.coupling = &device.couplingMap();

    ExecutionEngine one(EngineOptions{
        .threads = 1, .shardShots = 64, .maxShards = 8});
    ExecutionEngine many(EngineOptions{
        .threads = 4, .shardShots = 64, .maxShards = 8,
        .intraThreads = 2});
    JobQueue queue_one(one);
    JobQueue queue_many(many);
    const Result a = queue_one.submit(spec).get();
    const Result b = queue_many.submit(spec).get();
    EXPECT_EQ(a.rawCounts(), b.rawCounts());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep,
                         ::testing::Range(0, 6));

TEST(PipelineEquivalence, InstrumentWrapperMatchesWeave)
{
    Circuit payload(2, 2);
    payload.h(0).cx(0, 1).measureAll();
    const std::vector<AssertionSpec> specs = {
        entangledCheck(0, 1, 100)};
    for (const bool reuse : {false, true}) {
        InstrumentOptions opts;
        opts.reuseAncillas = reuse;
        const InstrumentedCircuit via_wrapper =
            instrument(payload, specs, opts);
        const InstrumentedCircuit via_detail =
            detail::weaveAssertions(payload, specs, opts);
        EXPECT_TRUE(via_wrapper.circuit() == via_detail.circuit());
        EXPECT_EQ(via_wrapper.assertionMask(),
                  via_detail.assertionMask());
    }
}

TEST(PipelineEquivalence, RouteTimeBindingPreservesSemantics)
{
    // GHZ payload + entanglement check on an 8-qubit line: the check
    // must pass exactly and the filtered payload must match the ideal
    // GHZ distribution.
    CouplingMap line(8);
    for (Qubit q = 0; q + 1 < 8; ++q)
        line.addEdge(q, q + 1);
    Circuit ghz(3, 3, "ghz");
    ghz.h(0).cx(0, 1).cx(1, 2).measureAll();

    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(3);
    check.targets = {0, 1, 2};
    check.insertAt = 3;

    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);
    JobSpec spec;
    spec.circuit = ghz;
    spec.shots = 4096;
    spec.backend = "statevector";
    spec.assertions = {check};
    spec.coupling = &line;
    const Result result = queue.submit(spec).get();
    const auto inst = queue.instrumented(spec);
    ASSERT_NE(inst, nullptr);
    const AssertionReport report = analyze(*inst, result);
    EXPECT_NEAR(report.anyErrorRate, 0.0, 1e-12);
    double kept = 0.0;
    for (const auto &[key, p] : report.filteredPayload) {
        EXPECT_TRUE(key == 0 || key == 7) << "outcome " << key;
        kept += p;
    }
    EXPECT_NEAR(kept, 1.0, 1e-9);
}

TEST(PipelineEquivalence, BarriersFenceOptimizerThroughPassBoundary)
{
    // A superposition check emits H gates next to the payload's own
    // H; the instrument barriers must keep the optimizer pass from
    // cancelling across the check boundary.
    Circuit payload(1, 1);
    payload.h(0);
    AssertionSpec check;
    check.assertion = std::make_shared<SuperpositionAssertion>();
    check.targets = {0};
    check.insertAt = 1;

    const InstrumentedCircuit inst =
        instrument(payload, {check}); // barriers on by default
    compile::PassManager pm;
    pm.add(std::make_shared<compile::OptimizePass>());
    const compile::CompileContext ctx = pm.run(inst.circuit());
    // Nothing may cancel: the check is fenced on both sides.
    EXPECT_EQ(ctx.circuit.size(), inst.circuit().size());
    EXPECT_EQ(ctx.cancelledGates, 0u);
}

} // namespace
} // namespace qra
