/**
 * @file
 * Trajectory plan-lowering tests: golden counts at fusion off and on,
 * a statistical fit to the density backend's exact distribution,
 * noise-site classification, fusion fences, and merged counts that
 * stay bit-identical at any thread/lane count.
 */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "common/hash.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"
#include "runtime/execution_engine.hh"
#include "sim/density_simulator.hh"
#include "sim/kernels/noise_plan.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/statevector_simulator.hh"
#include "sim/trajectory_simulator.hh"
#include "stats/chi_square.hh"
#include "stats/distance.hh"
#include "paper_circuits.hh"
#include "testutil.hh"

namespace qra {
namespace {

/** Depolarising + readout model over @p num_qubits qubits. */
NoiseModel
depolarizingReadoutNoise(std::size_t num_qubits)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.03);
    noise.setGateError(OpKind::H, 0.004);
    noise.setGateError(OpKind::RY, 0.002);
    for (Qubit q = 0; q < num_qubits; ++q)
        noise.setReadoutError(q, ReadoutError(0.015, 0.03));
    return noise;
}

/** Random noisy workload with mid-circuit measurement and reset. */
Circuit
randomNoisyCircuit(std::size_t num_qubits, std::size_t num_gates,
                   std::uint64_t seed)
{
    Circuit c(num_qubits, num_qubits);
    Rng rng(seed);
    auto layer = [&](std::size_t gates) {
        for (std::size_t i = 0; i < gates; ++i) {
            const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
            switch (rng.below(5)) {
              case 0:
                c.h(q);
                break;
              case 1:
                c.t(q);
                break;
              case 2:
                c.ry(rng.uniform() * M_PI, q);
                break;
              case 3:
                c.rz(rng.uniform() * M_PI, q);
                break;
              default:
              {
                const Qubit r = static_cast<Qubit>(
                    (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
                c.cx(q, r);
              }
            }
        }
    };
    layer(num_gates / 2);
    c.measure(0, 0);
    c.reset(0);
    layer(num_gates - num_gates / 2);
    c.measureAll();
    return c;
}

/**
 * Table 2's Bell pair with two entanglement checks sharing one reset
 * ancilla, prepared for ibmqx4: mid-circuit measure + reset on the
 * ancilla, idle physical qubits relaxing every moment.
 */
Circuit
reusePreparedBell(const DeviceModel &device)
{
    Circuit payload(2, 2);
    payload.h(0).cx(0, 1).measureAll();
    compile::PrepareSpec prep;
    for (int i = 0; i < 2; ++i) {
        AssertionSpec spec;
        spec.assertion = std::make_shared<EntanglementAssertion>(2);
        spec.targets = {0, 1};
        spec.insertAt = 2; // after the CX, before the measurements
        prep.assertions.push_back(spec);
    }
    prep.instrumentOptions.reuseAncillas = true;
    prep.coupling = &device.couplingMap();
    return compile::prepare(payload, prep).circuit;
}

/** FNV-1a digest of a run's raw counts and retained fraction. */
std::uint64_t
countsDigest(const Result &r)
{
    std::uint64_t h = kFnv1aOffset;
    for (const auto &[key, count] : r.rawCounts())
        h = fnv1aMix64(fnv1aMix64(h, key), count);
    return fnv1aMix64(h,
                      std::bit_cast<std::uint64_t>(r.retainedFraction()));
}

// Pinned from the Operation interpreter the plan replaced: at fusion
// off the plan drew the same RNG stream through the same kernels and
// matched it count for count, and fusion moved none of these counts.
TEST(TrajectoryPlanTest, GoldenCountsAtFusionLevels)
{
    const NoiseModel depolarizing = depolarizingReadoutNoise(5);
    // Thermal relaxation: state-dependent one-qubit sites.
    NoiseModel relaxation;
    relaxation.setGateError(OpKind::CX, 0.02);
    relaxation.setGateDuration(OpKind::CX, 300.0);
    relaxation.setGateDuration(OpKind::H, 50.0);
    for (Qubit q = 0; q < 4; ++q)
        relaxation.setQubitRelaxation(q, 50000.0, 30000.0);
    Circuit ghz4(4, 4);
    ghz4.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measureAll();
    // The shared ancilla is reset after its first measurement, and the
    // device register leaves qubits idle.
    const DeviceModel device = DeviceModel::ibmqx4();
    const Circuit reuse = reusePreparedBell(device);
    std::size_t resets = 0;
    for (const Operation &op : reuse.ops())
        resets += op.kind == OpKind::Reset ? 1 : 0;
    ASSERT_GE(resets, 1u);
    ASSERT_EQ(reuse.numQubits(), device.couplingMap().numQubits());

    const struct
    {
        const char *name;
        Circuit circuit;
        const NoiseModel *noise;
        std::uint64_t seed;
        std::size_t shots;
        std::uint64_t digest;
    } runs[] = {
        {"depolarizing", randomNoisyCircuit(5, 36, 511), &depolarizing,
         11, 400, 0x8a0e44eeb432fac6ULL},
        {"depolarizing", randomNoisyCircuit(5, 36, 512), &depolarizing,
         12, 400, 0x1f7b0bce20f9eff8ULL},
        {"depolarizing", randomNoisyCircuit(5, 36, 513), &depolarizing,
         13, 400, 0xd105debc230dd4d6ULL},
        {"depolarizing", randomNoisyCircuit(5, 36, 514), &depolarizing,
         14, 400, 0xd569346126de1341ULL},
        {"relaxation", ghz4, &relaxation, 21, 600, 0x5d7c2c98b9c4b346ULL},
        {"reuse_ibmqx4", reuse, &device.noiseModel(), 41, 600,
         0xa54e2f85a5141990ULL},
        {"reuse_ibmqx4", reuse, &device.noiseModel(), 42, 600,
         0xc7c52fd9539b3618ULL},
        {"ideal", randomNoisyCircuit(5, 30, 1300), nullptr, 5, 300,
         0x19dda9d6971d387eULL},
    };
    for (const auto &run : runs)
        for (const int level :
             {kernels::kFusionNone, kernels::kFusionDefault}) {
            kernels::FusionScope fusion(level);
            // A cached plan replays the same counts on a miss and a hit.
            kernels::PlanCache cache;
            kernels::PlanCacheScope scope(&cache);
            for (int pass = 0; pass < 2; ++pass) {
                TrajectorySimulator sim(run.seed);
                sim.setNoiseModel(run.noise);
                const std::uint64_t digest =
                    countsDigest(sim.run(run.circuit, run.shots));
                EXPECT_EQ(digest, run.digest)
                    << run.name << " seed " << run.seed << " fusion "
                    << level << " pass " << pass << ": digest 0x"
                    << std::hex << digest;
            }
            EXPECT_EQ(cache.stats().misses, 1u);
            EXPECT_EQ(cache.stats().hits, 1u);
        }
}

TEST(TrajectoryPlanTest, ReuseShapesFitExactBranchedDistribution)
{
    // The trajectory plan against the density backend's exact record
    // branches: 8192 shots per shape and seed must pass the pooled
    // chi-square at a 1e-6 false-alarm rate.
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel &noise = device.noiseModel();
    for (const auto &[name, c] : test::paperPreparedShapes(device, true)) {
        std::size_t resets = 0;
        for (const Operation &op : c.ops())
            resets += op.kind == OpKind::Reset ? 1 : 0;
        ASSERT_GE(resets, 1u) << name;

        DensityMatrixSimulator density;
        density.setNoiseModel(&noise);
        const auto exact = density.exactDistribution(c);
        const stats::Distribution reference(exact.begin(), exact.end());
        for (const std::uint64_t seed : {1u, 2u}) {
            TrajectorySimulator sim(seed);
            sim.setNoiseModel(&noise);
            const Result r = sim.run(c, 8192);
            EXPECT_GE(stats::pooledChiSquareTest(r.rawCounts(), reference)
                          .pValue,
                      1e-6)
                << name << " seed " << seed;
        }

        // Noiseless: StatevectorSimulator runs these reset circuits as
        // noise-free trajectories.
        const auto ideal = DensityMatrixSimulator().exactDistribution(c);
        const stats::Distribution ideal_reference(ideal.begin(),
                                                  ideal.end());
        for (const std::uint64_t seed : {1u, 2u}) {
            StatevectorSimulator sim(seed);
            const Result r = sim.run(c, 8192);
            EXPECT_GE(stats::pooledChiSquareTest(r.rawCounts(),
                                                 ideal_reference)
                          .pValue,
                      1e-6)
                << name << " ideal seed " << seed;
        }
    }
}

TEST(TrajectoryPlanTest, FusedPlanMatchesUnfusedCounts)
{
    // Fusion only rearranges clean unitary segments; site structure
    // and draw sequence are unchanged, so with a shared seed the two
    // runs diverge only where a probability shifted by ULPs lands
    // exactly on a draw boundary. Counts must agree up to a handful
    // of such flips — never the O(0.1) shift a semantic fusion bug
    // produces. (Exact equality would hinge on FMA/libm luck.)
    for (const std::uint64_t seed : {31u, 32u}) {
        const std::size_t n = 6;
        const Circuit c = randomNoisyCircuit(n, 40, 700 + seed);
        const NoiseModel noise = depolarizingReadoutNoise(n);

        Result results[2];
        const int levels[2] = {kernels::kFusionNone,
                               kernels::kFusion2q};
        for (int i = 0; i < 2; ++i) {
            kernels::FusionScope fusion(levels[i]);
            TrajectorySimulator sim(seed);
            sim.setNoiseModel(&noise);
            results[i] = sim.run(c, 500);
        }
        EXPECT_EQ(results[0].shots(), results[1].shots());
        const double tv = stats::totalVariation(
            stats::toDistribution(results[0].rawCounts()),
            stats::toDistribution(results[1].rawCounts()));
        EXPECT_LE(tv, 0.02) << "seed " << seed;
    }
}

TEST(TrajectoryPlanTest, CountsBitIdenticalAcrossThreadsAndLanes)
{
    const std::size_t n = 6;
    const Circuit c = randomNoisyCircuit(n, 32, 900);
    const NoiseModel noise = depolarizingReadoutNoise(n);

    runtime::ExecutionEngine one(runtime::EngineOptions{
        .threads = 1, .shardShots = 128, .intraThreads = 1});
    runtime::ExecutionEngine four(runtime::EngineOptions{
        .threads = 4, .shardShots = 128, .intraThreads = 4});
    const Result a = one.run(c, 512, "trajectory", 77, &noise);
    const Result b = four.run(c, 512, "trajectory", 77, &noise);
    EXPECT_EQ(a.rawCounts(), b.rawCounts());
}

TEST(TrajectoryPlanTest, DepolarizingSitesHaveFixedWeights)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.1);
    noise.setReadoutError(0, ReadoutError(0.02, 0.03));

    const kernels::TrajectoryPlan plan =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusionNone);
    ASSERT_EQ(plan.numSites(), 1u);
    const kernels::KrausSite &site = plan.site(0);
    EXPECT_TRUE(site.fixedWeights);
    ASSERT_EQ(site.weights.size(), site.branches.size());
    double total = 0.0;
    for (const double w : site.weights)
        total += w;
    EXPECT_NEAR(total, 1.0, 1e-10);
    // Every branch of a depolarising channel is a (scaled) Pauli
    // tensor product, so the pre-lowered kernels must all be cheap
    // structural 1q classes — never a dense 4x4.
    for (const std::vector<kernels::PlanEntry> &branch : site.branches)
        for (const kernels::PlanEntry &entry : branch)
            EXPECT_NE(entry.kind, kernels::KernelKind::General2q);

    // Readout on qubit 0 only: its Measure entry carries the site,
    // qubit 1's does not.
    int readout_sites = 0;
    for (const kernels::PlanEntry &entry : plan.entries()) {
        if (entry.kind != kernels::KernelKind::Measure)
            continue;
        if (entry.q0 == 0) {
            EXPECT_GE(entry.site, 0);
            ++readout_sites;
        } else {
            EXPECT_LT(entry.site, 0);
        }
    }
    EXPECT_EQ(readout_sites, 1);
}

TEST(TrajectoryPlanTest, RelaxationSitesAreStateDependent)
{
    Circuit c(1, 1);
    c.h(0).measure(0, 0);
    NoiseModel noise;
    noise.setGateDuration(OpKind::H, 100.0);
    noise.setQubitRelaxation(0, 50000.0, 30000.0);

    const kernels::TrajectoryPlan plan =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusionNone);
    ASSERT_GE(plan.numSites(), 1u);
    const kernels::KrausSite &site = plan.site(0);
    EXPECT_FALSE(site.fixedWeights);
    // The flat operators with their Gram matrices, and no branch
    // tables of the fixed-weight kind.
    EXPECT_EQ(site.ops1q.size(), 4u);
    EXPECT_TRUE(site.weights.empty());
    EXPECT_TRUE(site.branches.empty());

    // Completeness: sum_k G_k = I, so the weights of any reduced
    // density sum to its trace.
    const kernels::QubitDensity rho{0.3, 0.7, Complex{0.2, -0.4}};
    double total = 0.0;
    for (const kernels::Kraus1q &op : site.ops1q)
        total += op.weight(rho);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(TrajectoryPlanTest, CertainGateErrorsLowerToFixedWeights)
{
    // At p = 1 a depolarising channel's identity operator is exactly
    // zero; the site drops it and keeps the 3 (1q) or 15 (2q) scaled
    // Paulis, with weights summing to 1.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    NoiseModel certain;
    certain.setGateError(OpKind::H, 1.0);
    certain.setGateError(OpKind::CX, 1.0);
    NoiseModel base;
    base.setGateError(OpKind::CX, 0.3);
    const NoiseModel clamped = base.scaled(4.0); // clamps to p = 1

    const NoiseModel *const models[] = {&certain, &clamped};
    for (const NoiseModel *noise : models) {
        const kernels::TrajectoryPlan plan =
            kernels::TrajectoryPlan::compile(c, noise,
                                             kernels::kFusionNone);
        ASSERT_EQ(plan.numSites(), noise == &certain ? 2u : 1u);
        for (std::size_t i = 0; i < plan.numSites(); ++i) {
            const kernels::KrausSite &site =
                plan.site(static_cast<std::int32_t>(i));
            EXPECT_TRUE(site.fixedWeights);
            EXPECT_EQ(site.weights.size(),
                      site.qubits.size() == 1 ? 3u : 15u);
            double total = 0.0;
            for (const double w : site.weights)
                total += w;
            EXPECT_NEAR(total, 1.0, 1e-10);
        }

        DensityMatrixSimulator density;
        density.setNoiseModel(noise);
        const auto exact = density.exactDistribution(c);
        TrajectorySimulator sim(3);
        sim.setNoiseModel(noise);
        EXPECT_GE(stats::pooledChiSquareTest(
                      sim.run(c, 8192).rawCounts(),
                      stats::Distribution(exact.begin(), exact.end()))
                      .pValue,
                  1e-6);
    }
}

TEST(TrajectoryPlanTest, CleanSegmentsFuseNoisyGatesFence)
{
    // Noise only on CX: 1q runs fuse, the noisy CX stays fenced by
    // its sample site.
    Circuit c(2, 2);
    c.h(0).t(0).h(1).t(1).cx(0, 1).h(0).h(0).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);

    const kernels::TrajectoryPlan fused =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusion2q);
    const kernels::TrajectoryPlan unfused =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusionNone);
    EXPECT_LT(fused.entries().size(), unfused.entries().size());
    EXPECT_GE(fused.stats().fusedGates, 4u); // t·h runs + h·h vanish

    bool has_site = false;
    for (const kernels::PlanEntry &entry : fused.entries())
        has_site = has_site ||
                   entry.kind == kernels::KernelKind::SampleKraus;
    EXPECT_TRUE(has_site);
}

TEST(TrajectoryPlanTest, BarriersFenceTrajectoryFusion)
{
    // The moment schedule drops barriers, but the plan must still
    // honour them as fusion fences — same contract as ExecutablePlan.
    Circuit hh(1, 1);
    hh.h(0).barrier().h(0).measure(0, 0);
    const kernels::TrajectoryPlan fenced1q =
        kernels::TrajectoryPlan::compile(hh, nullptr,
                                         kernels::kFusion2q);
    // H, H, Measure — the pair must not cancel across the barrier.
    EXPECT_EQ(fenced1q.entries().size(), 3u);

    Circuit cxcx(2, 2);
    cxcx.cx(0, 1).barrier().cx(0, 1).measureAll();
    const kernels::TrajectoryPlan fenced2q =
        kernels::TrajectoryPlan::compile(cxcx, nullptr,
                                         kernels::kFusion2q);
    std::size_t cx_entries = 0;
    for (const kernels::PlanEntry &entry : fenced2q.entries())
        if (entry.kind == kernels::KernelKind::ControlledX)
            ++cx_entries;
    EXPECT_EQ(cx_entries, 2u);

    // Without the barrier both collapse.
    Circuit free2q(2, 2);
    free2q.cx(0, 1).cx(0, 1).measureAll();
    const kernels::TrajectoryPlan open =
        kernels::TrajectoryPlan::compile(free2q, nullptr,
                                         kernels::kFusion2q);
    for (const kernels::PlanEntry &entry : open.entries())
        EXPECT_NE(entry.kind, kernels::KernelKind::ControlledX);
}

TEST(TrajectoryPlanTest, PlanCacheReusesTrajectoryPlans)
{
    const Circuit c = randomNoisyCircuit(4, 20, 1500);
    const NoiseModel noise = depolarizingReadoutNoise(4);

    kernels::PlanCache cache;
    kernels::PlanCacheScope scope(&cache);
    TrajectorySimulator sim(9);
    sim.setNoiseModel(&noise);
    const Result a = sim.run(c, 100);
    EXPECT_EQ(cache.stats().misses, 1u);

    sim.seed(9);
    const Result b = sim.run(c, 100);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(a.rawCounts(), b.rawCounts());

    // A different noise model (different fingerprint) must miss.
    const NoiseModel scaled = noise.scaled(2.0);
    TrajectorySimulator sim2(9);
    sim2.setNoiseModel(&scaled);
    sim2.run(c, 50);
    EXPECT_EQ(cache.stats().misses, 2u);
}

} // namespace
} // namespace qra
