/**
 * @file
 * PassManager: pipeline construction, per-pass stats, describe(), and
 * the stability/sensitivity of the pipeline fingerprint.
 */

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "common/error.hh"
#include "compile/passes.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"

namespace qra {
namespace {

using compile::CompileContext;
using compile::InjectionStrategy;
using compile::PassManager;
using compile::PrepareSpec;

AssertionSpec
entangledCheck(Qubit a, Qubit b, std::size_t at,
               std::size_t repetitions = 1)
{
    AssertionSpec spec;
    spec.assertion = std::make_shared<EntanglementAssertion>(2);
    spec.targets = {a, b};
    spec.insertAt = at;
    spec.repetitions = repetitions;
    return spec;
}

TEST(PassManager, RunsPassesInOrderWithStats)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();

    const PassManager pm = compile::transpilePipeline();
    const CompileContext ctx = pm.run(c, &map);

    ASSERT_EQ(ctx.passStats.size(), pm.size());
    const std::vector<std::string> names = pm.passNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(ctx.passStats[i].name, names[i]);
    // The route pass annotates its stats entry.
    bool found_route_note = false;
    for (const compile::PassStats &stats : ctx.passStats)
        if (stats.name == "route" &&
            stats.note.find("swaps") != std::string::npos)
            found_route_note = true;
    EXPECT_TRUE(found_route_note);
    EXPECT_TRUE(ctx.initialLayout.has_value());
    EXPECT_TRUE(ctx.finalLayout.has_value());
}

TEST(PassManager, DescribeListsPassesAndFingerprint)
{
    const PassManager pm = compile::transpilePipeline();
    const std::string dump = pm.describe();
    for (const std::string &name : pm.passNames())
        EXPECT_NE(dump.find(name), std::string::npos) << name;
    EXPECT_NE(dump.find("fingerprint:"), std::string::npos);
}

TEST(PassManager, FingerprintIsStable)
{
    EXPECT_EQ(compile::transpilePipeline().fingerprint(),
              compile::transpilePipeline().fingerprint());
}

TEST(PassManager, FingerprintSeesOptions)
{
    DecomposeOptions swap_only;
    swap_only.decomposeCcx = false;
    DecomposeOptions ccx_only;
    ccx_only.decomposeSwap = false;
    PassManager a;
    a.add(std::make_shared<compile::DecomposePass>(swap_only));
    PassManager b;
    b.add(std::make_shared<compile::DecomposePass>(ccx_only));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(PassManager, FingerprintSeesPassOrder)
{
    DecomposeOptions dopts;
    PassManager ab;
    ab.add(std::make_shared<compile::DecomposePass>(dopts));
    ab.add(std::make_shared<compile::OptimizePass>());
    PassManager ba;
    ba.add(std::make_shared<compile::OptimizePass>());
    ba.add(std::make_shared<compile::DecomposePass>(dopts));
    EXPECT_NE(ab.fingerprint(), ba.fingerprint());
}

TEST(PassManager, AssertionFingerprintIsSemantic)
{
    // Two distinct assertion objects with equal semantics fold to the
    // same fingerprint; any semantic field change folds differently.
    const std::uint64_t h = 0x1234;
    const std::uint64_t base =
        compile::foldAssertionSpec(h, entangledCheck(0, 1, 2));
    EXPECT_EQ(base,
              compile::foldAssertionSpec(h, entangledCheck(0, 1, 2)));
    EXPECT_NE(base,
              compile::foldAssertionSpec(h, entangledCheck(1, 0, 2)));
    EXPECT_NE(base,
              compile::foldAssertionSpec(h, entangledCheck(0, 1, 3)));
    EXPECT_NE(base, compile::foldAssertionSpec(
                        h, entangledCheck(0, 1, 2, 3)));
}

TEST(PassManager, PreparePipelineOmitsInertPasses)
{
    // No assertions: instrumentation knobs must not appear in the
    // pipeline (or its fingerprint), and without a coupling map
    // neither do the device passes.
    PrepareSpec plain;
    PrepareSpec tweaked = plain;
    tweaked.instrumentOptions.reuseAncillas = true;
    EXPECT_EQ(compile::preparePipeline(plain).fingerprint(),
              compile::preparePipeline(tweaked).fingerprint());
    EXPECT_EQ(compile::preparePipeline(plain).size(), 0u);
}

TEST(PassManager, PreparePipelineSeesActiveKnobs)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    PrepareSpec spec;
    spec.coupling = &map;
    spec.assertions = {entangledCheck(0, 1, 2)};

    PrepareSpec reuse = spec;
    reuse.instrumentOptions.reuseAncillas = true;
    PrepareSpec autogen = spec;
    autogen.injection = InjectionStrategy::AutoGenerate;

    const std::uint64_t f0 =
        compile::preparePipeline(spec).fingerprint();
    EXPECT_NE(f0, compile::preparePipeline(reuse).fingerprint());
    EXPECT_NE(f0, compile::preparePipeline(autogen).fingerprint());
}

TEST(PassManager, DeviceTooSmallForAncillasThrows)
{
    // 2-qubit device cannot host payload + ancilla.
    CouplingMap map(2);
    map.addEdge(0, 1);
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    PrepareSpec spec;
    spec.coupling = &map;
    spec.assertions = {entangledCheck(0, 1, 2)};
    EXPECT_THROW(compile::prepare(c, spec), TranspileError);
}

} // namespace
} // namespace qra
