#include "runtime/builtin_backends.hh"

#include <algorithm>

#include "circuit/schedule.hh"
#include "common/error.hh"
#include "runtime/backend_registry.hh"
#include "sim/density_simulator.hh"
#include "sim/statevector_simulator.hh"
#include "sim/trajectory_simulator.hh"
#include "stabilizer/stabilizer_simulator.hh"

namespace qra {
namespace runtime {

namespace {

/** @throws SimulationError with the reject reason if unsupported. */
void
requireSupported(const Backend &backend, const Circuit &circuit,
                 const NoiseModel *noise)
{
    const std::string reason = backend.rejectReason(circuit, noise);
    if (!reason.empty())
        throw SimulationError(reason);
}

/**
 * CRTP-free boilerplate base: stores the name/capability constants so
 * each wrapper only implements run().
 */
class BuiltinBackend : public Backend
{
  public:
    BuiltinBackend(std::string name, BackendCapabilities caps)
        : name_(std::move(name)), caps_(caps)
    {
    }

    const std::string &name() const override { return name_; }
    const BackendCapabilities &capabilities() const override
    {
        return caps_;
    }

  private:
    std::string name_;
    BackendCapabilities caps_;
};

// State-vector memory is the ceiling; the statevector and trajectory
// backends both hold one StateVector, so its own cap is theirs.
constexpr std::size_t kStatevectorMaxQubits = StateVector::kMaxQubits;
// The density matrix squares that cost; its own cap is the only one.
constexpr std::size_t kDensityMaxQubits = DensityMatrix::kMaxQubits;
// The tableau is O(n^2) bits; 4096 is the circuit IR's own limit.
constexpr std::size_t kStabilizerMaxQubits = 4096;

class StatevectorBackend final : public BuiltinBackend
{
  public:
    StatevectorBackend()
        : BuiltinBackend("statevector",
                         {.supportsNoise = false,
                          .exactDistribution = false,
                          .cliffordOnly = false,
                          .maxQubits = kStatevectorMaxQubits,
                          .shardable = true})
    {
    }

    Result run(const Circuit &circuit, std::size_t shots,
               std::uint64_t seed,
               const NoiseModel *noise) const override
    {
        requireSupported(*this, circuit, noise);
        StatevectorSimulator sim(seed);
        return sim.run(circuit, shots);
    }
};

class DensityBackend final : public BuiltinBackend
{
  public:
    DensityBackend()
        : BuiltinBackend("density",
                         {.supportsNoise = true,
                          .exactDistribution = true,
                          .cliffordOnly = false,
                          .maxQubits = kDensityMaxQubits,
                          .shardable = false})
    {
    }

    /** Adds the record-branch cap: 2^k states for k mid-circuit measures. */
    std::string rejectReason(const Circuit &circuit,
                             const NoiseModel *noise) const override
    {
        std::string reason = Backend::rejectReason(circuit, noise);
        if (reason.empty())
            reason = DensityMatrixSimulator::branchLimitReason(
                circuit.numQubits(),
                static_cast<std::size_t>(std::ranges::count(
                    midCircuitMeasurements(circuit), true)));
        return reason;
    }

    Result run(const Circuit &circuit, std::size_t shots,
               std::uint64_t seed,
               const NoiseModel *noise) const override
    {
        requireSupported(*this, circuit, noise);
        DensityMatrixSimulator sim(seed);
        sim.setNoiseModel(noise);
        return sim.run(circuit, shots);
    }
};

class TrajectoryBackend final : public BuiltinBackend
{
  public:
    TrajectoryBackend()
        : BuiltinBackend("trajectory",
                         {.supportsNoise = true,
                          .exactDistribution = false,
                          .cliffordOnly = false,
                          .maxQubits = kStatevectorMaxQubits,
                          .shardable = true})
    {
    }

    Result run(const Circuit &circuit, std::size_t shots,
               std::uint64_t seed,
               const NoiseModel *noise) const override
    {
        requireSupported(*this, circuit, noise);
        TrajectorySimulator sim(seed);
        sim.setNoiseModel(noise);
        return sim.run(circuit, shots);
    }
};

class StabilizerBackend final : public BuiltinBackend
{
  public:
    StabilizerBackend()
        : BuiltinBackend("stabilizer",
                         {.supportsNoise = false,
                          .exactDistribution = false,
                          .cliffordOnly = true,
                          .maxQubits = kStabilizerMaxQubits,
                          .shardable = true})
    {
    }

    Result run(const Circuit &circuit, std::size_t shots,
               std::uint64_t seed,
               const NoiseModel *noise) const override
    {
        requireSupported(*this, circuit, noise);
        StabilizerSimulator sim(seed);
        return sim.run(circuit, shots);
    }
};

} // namespace

BackendPtr
makeStatevectorBackend()
{
    return std::make_shared<StatevectorBackend>();
}

BackendPtr
makeDensityBackend()
{
    return std::make_shared<DensityBackend>();
}

BackendPtr
makeTrajectoryBackend()
{
    return std::make_shared<TrajectoryBackend>();
}

BackendPtr
makeStabilizerBackend()
{
    return std::make_shared<StabilizerBackend>();
}

void
registerBuiltinBackends(BackendRegistry &registry)
{
    registry.registerBackend("statevector", makeStatevectorBackend);
    registry.registerBackend("density", makeDensityBackend);
    registry.registerBackend("trajectory", makeTrajectoryBackend);
    registry.registerBackend("stabilizer", makeStabilizerBackend);
}

} // namespace runtime
} // namespace qra
