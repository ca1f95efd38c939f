/**
 * @file
 * BackendRegistry: builtin registration, capability flags, creation,
 * custom registration, and auto-selection policy.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "library/algorithms.hh"
#include "noise/device_model.hh"
#include "runtime/backend_registry.hh"
#include "runtime/builtin_backends.hh"
#include "sim/state_vector.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

/**
 * @p reuses rounds of measure, reset and reuse on qubit 0 of a
 * @p qubits-qubit register, then a terminal measurement: @p reuses
 * mid-circuit measurements.
 */
Circuit
reuseCircuit(std::size_t qubits, int reuses)
{
    Circuit c(qubits, 1);
    c.h(0);
    for (int i = 0; i < reuses; ++i)
        c.measure(0, 0).reset(0).h(0);
    c.measure(0, 0);
    return c;
}

} // namespace

TEST(BackendRegistry, GlobalHasAllBuiltins)
{
    const auto names = BackendRegistry::global().names();
    EXPECT_EQ(names.size(), 4u);
    for (const char *name :
         {"density", "stabilizer", "statevector", "trajectory"})
        EXPECT_TRUE(BackendRegistry::global().contains(name))
            << "missing builtin backend " << name;
}

TEST(BackendRegistry, CreateReturnsCachedInstance)
{
    auto &registry = BackendRegistry::global();
    const BackendPtr a = registry.create("statevector");
    const BackendPtr b = registry.create("statevector");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get()) << "stateless backends should be cached";
    EXPECT_EQ(a->name(), "statevector");
}

TEST(BackendRegistry, UnknownNameThrowsListingKnown)
{
    try {
        BackendRegistry::global().create("qpu9000");
        FAIL() << "expected ValueError";
    } catch (const ValueError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("qpu9000"), std::string::npos);
        EXPECT_NE(message.find("statevector"), std::string::npos);
    }
}

TEST(BackendRegistry, CapabilityFlags)
{
    auto &registry = BackendRegistry::global();
    const auto &sv = registry.create("statevector")->capabilities();
    EXPECT_FALSE(sv.supportsNoise);
    EXPECT_TRUE(sv.shardable);

    const auto &density = registry.create("density")->capabilities();
    EXPECT_TRUE(density.supportsNoise);
    EXPECT_TRUE(density.exactDistribution);
    EXPECT_FALSE(density.shardable);

    const auto &traj = registry.create("trajectory")->capabilities();
    EXPECT_TRUE(traj.supportsNoise);

    const auto &stab = registry.create("stabilizer")->capabilities();
    EXPECT_TRUE(stab.cliffordOnly);
    EXPECT_GT(stab.maxQubits, sv.maxQubits);
}

TEST(BackendRegistry, RejectReasons)
{
    auto &registry = BackendRegistry::global();
    Circuit t_gate(1, 1);
    t_gate.t(0).measure(0, 0);
    EXPECT_FALSE(
        registry.create("stabilizer")->supports(t_gate, nullptr));
    EXPECT_TRUE(
        registry.create("statevector")->supports(t_gate, nullptr));

    // Ancilla reuse: measured qubit gated again. Density branches on
    // up to six such records; the seventh is past its cap.
    const BackendPtr density = registry.create("density");
    EXPECT_TRUE(density->supports(reuseCircuit(5, 6), nullptr));
    const std::string reason =
        density->rejectReason(reuseCircuit(5, 7), nullptr);
    EXPECT_NE(reason.find("at most 6 mid-circuit measurements"),
              std::string::npos)
        << reason;
    // Past 2^records branches of the density cap's state size.
    EXPECT_NE(density->rejectReason(reuseCircuit(12, 1), nullptr)
                  .find("256 MiB"),
              std::string::npos);
    EXPECT_TRUE(density->supports(reuseCircuit(12, 0), nullptr));
    EXPECT_TRUE(registry.create("trajectory")
                    ->supports(reuseCircuit(5, 7), nullptr));

    // Noise on a noiseless backend.
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit bell(2, 2);
    bell.h(0).cx(0, 1).measureAll();
    EXPECT_FALSE(registry.create("statevector")
                     ->supports(bell, &device.noiseModel()));
    EXPECT_TRUE(registry.create("density")
                    ->supports(bell, &device.noiseModel()));
}

TEST(BackendRegistry, AutoPicksStatevectorForSmallIdealCircuits)
{
    Circuit bell(2, 2);
    bell.h(0).cx(0, 1).measureAll();
    const BackendPtr backend =
        BackendRegistry::global().resolveAuto(bell, nullptr);
    EXPECT_EQ(backend->name(), "statevector");
}

TEST(BackendRegistry, AutoPicksDensityForNoisyCircuits)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit bell(2, 2);
    bell.h(0).cx(0, 1).measureAll();
    const BackendPtr backend = BackendRegistry::global().resolveAuto(
        bell, &device.noiseModel());
    EXPECT_EQ(backend->name(), "density");
}

TEST(BackendRegistry, AutoPicksDensityForNoisyReuseUpToBranchCap)
{
    // The cap bounds branch memory; it is not a speed boundary.
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel *noise = &device.noiseModel();
    auto &registry = BackendRegistry::global();
    EXPECT_EQ(registry.resolveAuto(reuseCircuit(5, 6), noise)->name(),
              "density");
    EXPECT_EQ(registry.resolveAuto(reuseCircuit(5, 7), noise)->name(),
              "trajectory");
    EXPECT_EQ(registry.resolveAuto(reuseCircuit(12, 1), noise)->name(),
              "trajectory");
}

TEST(BackendRegistry, AutoFallsBackToTrajectoryPastDensityCap)
{
    // The density backend advertises the density matrix's own cap, so
    // one qubit more must route to trajectory instead of failing.
    const DeviceModel device = DeviceModel::ibmqx4();
    const std::size_t cap =
        BackendRegistry::global().create("density")->capabilities()
            .maxQubits;
    Circuit wide(cap + 1, 2);
    wide.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    const BackendPtr backend = BackendRegistry::global().resolveAuto(
        wide, &device.noiseModel());
    EXPECT_EQ(backend->name(), "trajectory");
    EXPECT_EQ(cap, 12u);

    Circuit at_cap(cap, 2);
    at_cap.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    EXPECT_EQ(BackendRegistry::global()
                  .resolveAuto(at_cap, &device.noiseModel())
                  ->name(),
              "density");
}

TEST(BackendRegistry, StatevectorCapsMatchTheStateVector)
{
    // Both state-vector backends advertise the StateVector's own cap,
    // so one qubit past it is rejected up front instead of being
    // admitted and failing mid-shard.
    auto &registry = BackendRegistry::global();
    EXPECT_EQ(registry.create("statevector")->capabilities().maxQubits,
              StateVector::kMaxQubits);
    EXPECT_EQ(registry.create("trajectory")->capabilities().maxQubits,
              StateVector::kMaxQubits);

    const std::size_t n = StateVector::kMaxQubits + 1;
    Circuit ghz_t = library::ghzState(n);
    ghz_t.t(0);
    ghz_t.addClbits(n);
    ghz_t.measureAll();
    const DeviceModel device = DeviceModel::ibmqx4();
    for (const NoiseModel *noise :
         {static_cast<const NoiseModel *>(nullptr),
          &device.noiseModel()}) {
        try {
            registry.resolveAuto(ghz_t, noise);
            FAIL() << "expected SimulationError (noisy = "
                   << (noise != nullptr) << ")";
        } catch (const SimulationError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "no registered backend supports this "
                          "circuit"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(BackendRegistry, AutoPicksStabilizerForLargeCliffordCircuits)
{
    Circuit ghz = library::ghzState(24);
    ghz.addClbits(24);
    ghz.measureAll();
    const BackendPtr backend =
        BackendRegistry::global().resolveAuto(ghz, nullptr);
    EXPECT_EQ(backend->name(), "stabilizer");
}

TEST(BackendRegistry, ResolveRoutesAutoAndNames)
{
    Circuit bell(2, 2);
    bell.h(0).cx(0, 1).measureAll();
    auto &registry = BackendRegistry::global();
    EXPECT_EQ(registry.resolve("auto", bell)->name(), "statevector");
    EXPECT_EQ(registry.resolve("trajectory", bell)->name(),
              "trajectory");
}

TEST(BackendRegistry, CustomRegistration)
{
    BackendRegistry registry;
    EXPECT_TRUE(registry.names().empty());
    registerBuiltinBackends(registry);
    EXPECT_EQ(registry.names().size(), 4u);

    // Replace one name with another factory.
    registry.registerBackend("statevector", makeTrajectoryBackend);
    EXPECT_EQ(registry.create("statevector")->name(), "trajectory");
}
