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
#include <map>

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "assertions/entanglement_assertion.hh"
#include "assertions/superposition_assertion.hh"
#include "compile/passes.hh"
#include "compile/pipelines.hh"
#include "common/hash.hh"
#include "noise/device_model.hh"
#include "paper_circuits.hh"
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
legacyTranspile(const Circuit &circuit, const CouplingMap &map)
{
    DecomposeOptions dopts;
    dopts.decomposeSwap = false;
    dopts.decomposeCcx = true;
    const Circuit lowered = decompose(circuit, dopts);
    const Layout initial = greedyLayout(lowered, map);
    const RoutedCircuit routed = routeCircuit(lowered, map, initial);
    DecomposeOptions swap_opts;
    swap_opts.decomposeSwap = true;
    swap_opts.decomposeCcx = false;
    const Circuit swap_free = decompose(routed.circuit, swap_opts);
    const DirectionFixResult directed = fixDirections(swap_free, map);
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
    const TranspileResult result = transpile(payload, map);
    // Bit-for-bit: same ops, operands, params, wiring.
    EXPECT_TRUE(result.circuit == legacyTranspile(payload, map));
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


// --- Parity pin ------------------------------------------------------
//
// PrepareGolden pins prepare()'s output on a fixed corpus: the prepared
// circuit's hash and name, and every pass's (name, opsBefore, opsAfter,
// note). It runs on ibmqx4, whose directed edges make direction-fix
// reverse CNOTs, and on a 5x5 grid with both directions native. The
// digests were taken before the passes learned to leave unchanged
// circuits alone and are never edited.

/** 5x5 grid, every edge native in both directions. */
CouplingMap
grid5x5()
{
    CouplingMap map(25);
    for (Qubit r = 0; r < 5; ++r)
        for (Qubit c = 0; c < 5; ++c) {
            const Qubit here = r * 5 + c;
            if (c + 1 < 5) {
                map.addEdge(here, here + 1);
                map.addEdge(here + 1, here);
            }
            if (r + 1 < 5) {
                map.addEdge(here, here + 5);
                map.addEdge(here + 5, here);
            }
        }
    return map;
}

/** randomCircuit plus Toffolis and rotation runs that merge. */
Circuit
randomCircuitWithCcx(std::size_t num_qubits, std::size_t num_gates, Rng &rng)
{
    Circuit c(num_qubits, num_qubits, "fuzz_ccx");
    for (std::size_t i = 0; i < num_gates; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        const Qubit r = static_cast<Qubit>(
            (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
        const Qubit t = static_cast<Qubit>(
            (r + 1 + rng.below(num_qubits - 2)) % num_qubits);
        switch (rng.below(6)) {
          case 0: c.h(q).h(q); break;
          case 1: c.rz(0.25, q).rz(-0.25, q); break;
          case 2: c.rx(0.5, q).rx(0.75, q); break;
          case 3:
            if (t != q)
                c.ccx(q, r, t);
            break;
          case 4: c.cx(q, r); break;
          default: c.s(q).sdg(q).t(r); break;
        }
    }
    c.measureAll();
    return c;
}

std::uint64_t
prepareDigest(const Circuit &payload, const compile::PrepareSpec &spec)
{
    const compile::CompileContext ctx = compile::prepare(payload, spec);
    std::uint64_t h = kFnv1aOffset;
    h = fnv1aMix64(h, ctx.circuit.hash());
    h = fnv1aMixString(h, ctx.circuit.name());
    h = fnv1aMix64(h, ctx.passStats.size());
    for (const compile::PassStats &stats : ctx.passStats) {
        h = fnv1aMixString(h, stats.name);
        h = fnv1aMix64(h, stats.opsBefore);
        h = fnv1aMix64(h, stats.opsAfter);
        h = fnv1aMixString(h, stats.note);
    }
    return h;
}

TEST(PrepareGolden, PreparedCircuitsAndPassStats)
{
    const std::map<std::string, std::uint64_t> expected = {
        {"ibmqx4/table1", 0x17da46ee2109363cULL},
        {"ibmqx4/table2_bell", 0x727f7932deb3a3b6ULL},
        {"ibmqx4/sec43_plus", 0x82f7bae98ae2936ULL},
        {"ibmqx4/fig4_ghz3", 0x7f2ef701fd9d0f90ULL},
        {"ibmqx4/ghz4_auto", 0xa0718dd10c9d1756ULL},
        {"ibmqx4/w3_auto", 0x77b4904b06e014ddULL},
        {"ibmqx4/table1_x2", 0xc7a6ee0946328a74ULL},
        {"ibmqx4/table2_bell_x2", 0x815f1815ca4f934eULL},
        {"ibmqx4/sec43_plus_x2", 0x35ba1325e70e8e6eULL},
        {"ibmqx4/fig4_ghz3_seq", 0x91b9c2f80ed6750eULL},
        {"ibmqx4/ghz4_seq", 0xfdea732be39473ebULL},
        {"ibmqx4/checked_0", 0x2032a58d201c03f4ULL},
        {"ibmqx4/plain_0", 0x515732e1f14ea5efULL},
        {"ibmqx4/ccx_0", 0x3cc8c6fbe461bcb7ULL},
        {"ibmqx4/checked_1", 0x4ab9db50adaeac39ULL},
        {"ibmqx4/plain_1", 0x366e26cdfac2d259ULL},
        {"ibmqx4/ccx_1", 0x4a3f9f9a6dad7bdcULL},
        {"ibmqx4/checked_2", 0x421d7792bc6f6bc0ULL},
        {"ibmqx4/plain_2", 0x8e9a5c96761a81afULL},
        {"ibmqx4/ccx_2", 0x8e5f0b3ebc9bd4fcULL},
        {"ibmqx4/checked_3", 0x7195b2213e7f671fULL},
        {"ibmqx4/plain_3", 0xdf84bf3771be44beULL},
        {"ibmqx4/ccx_3", 0xf7284a0a79f3719bULL},
        {"grid/table1", 0xd979b1bab90470a3ULL},
        {"grid/table2_bell", 0x45687f13d56c8a30ULL},
        {"grid/sec43_plus", 0xac691ad7440ac3b9ULL},
        {"grid/fig4_ghz3", 0x25125b9ddc338dadULL},
        {"grid/ghz4_auto", 0x5cc5f81746813f3cULL},
        {"grid/w3_auto", 0xe1bb88122d8615efULL},
        {"grid/table1_x2", 0x69ad9ad9b26ff211ULL},
        {"grid/table2_bell_x2", 0x226a5e44daabdcafULL},
        {"grid/sec43_plus_x2", 0x21a2cd99a1e4ce0ULL},
        {"grid/fig4_ghz3_seq", 0x7d7adf9d8826c46fULL},
        {"grid/ghz4_seq", 0x541364f6bfbbb3b3ULL},
        {"grid/checked_0", 0xb7ee3ad58c18bf83ULL},
        {"grid/plain_0", 0x723a24fe9082c295ULL},
        {"grid/ccx_0", 0x17dc34150345549dULL},
        {"grid/checked_1", 0x2f0d4046c47a1480ULL},
        {"grid/plain_1", 0x1b04b9e13a2418ULL},
        {"grid/ccx_1", 0x46148a5895100a9ULL},
        {"grid/checked_2", 0x8a276ee85453410ULL},
        {"grid/plain_2", 0x11c17e713cb77053ULL},
        {"grid/ccx_2", 0x2af8e0f30d67479cULL},
        {"grid/checked_3", 0x9da72aae3b6d80bdULL},
        {"grid/plain_3", 0xd2f54f3e8e6aaa8cULL},
        {"grid/ccx_3", 0x616ec7d8db284c23ULL},
        {"grid/wide_auto_0", 0xbf3dd860535ce93aULL},
        {"grid/wide_auto_1", 0xf8dc1daf8e44614fULL},
        {"grid/wide_auto_2", 0xf1b5a5bc2ab6255bULL},
    };
    const CouplingMap ibmqx4 = DeviceModel::ibmqx4().couplingMap();
    const CouplingMap grid = grid5x5();
    std::vector<std::pair<std::string, std::uint64_t>> got;
    for (const auto &[device, map] :
         {std::pair<std::string, const CouplingMap *>{"ibmqx4", &ibmqx4},
          {"grid", &grid}}) {
        for (const test::PaperSource &source : test::paperSources()) {
            const AnnotatedProgram program =
                parseAnnotatedQasm(source.text);
            compile::PrepareSpec prep;
            prep.assertions = program.specs;
            prep.instrumentOptions.reuseAncillas = source.reuse;
            if (source.autoAssert)
                prep.injection = compile::InjectionStrategy::AutoGenerate;
            prep.coupling = map;
            got.emplace_back(device + "/" + source.name,
                             prepareDigest(program.payload, prep));
        }
        for (int seed = 0; seed < 4; ++seed) {
            Rng rng(4000 + seed);
            const Circuit checked = randomCircuit(3, 16, rng);
            compile::PrepareSpec prep;
            prep.assertions = {entangledCheck(0, 1, 8),
                               entangledCheck(1, 2, 100)};
            prep.coupling = map;
            got.emplace_back(device + "/checked_" + std::to_string(seed),
                             prepareDigest(checked, prep));

            // The odd seeds' plain rows pinned the trivial-layout and
            // no-optimize pipelines, which no longer exist; their
            // circuits are still drawn so later rows keep their inputs.
            const Circuit plain = randomCircuit(5, 40, rng);
            compile::PrepareSpec bare;
            bare.coupling = map;
            if (seed % 2 == 0)
                got.emplace_back(
                    device + "/plain_" + std::to_string(seed),
                    prepareDigest(plain, bare));

            // Auto-assert ancillas fit beside 5 payload qubits only on
            // the grid.
            const Circuit ccx = randomCircuitWithCcx(5, 30, rng);
            compile::PrepareSpec ccx_prep;
            if (map == &grid)
                ccx_prep.injection =
                    compile::InjectionStrategy::AutoGenerate;
            ccx_prep.coupling = map;
            got.emplace_back(device + "/ccx_" + std::to_string(seed),
                             prepareDigest(ccx, ccx_prep));
        }
    }
    for (int seed = 0; seed < 3; ++seed) {
        Rng rng(5000 + seed);
        const Circuit wide = randomCircuit(16, 200, rng);
        compile::PrepareSpec autos;
        autos.injection = compile::InjectionStrategy::AutoGenerate;
        autos.autoAssert.maxChecks = 4;
        autos.coupling = &grid;
        got.emplace_back("grid/wide_auto_" + std::to_string(seed),
                         prepareDigest(wide, autos));
    }
    for (const auto &[name, digest] : got) {
        const auto it = expected.find(name);
        if (it == expected.end()) {
            ADD_FAILURE() << "no digest for {\"" << name << "\", 0x"
                          << std::hex << digest << "ULL}";
            continue;
        }
        EXPECT_EQ(digest, it->second)
            << name << " digest 0x" << std::hex << digest;
    }
}

} // namespace
} // namespace qra
