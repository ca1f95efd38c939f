/**
 * @file
 * The Backend interface: one uniform, thread-safe entry point over
 * every simulator class in the library.
 *
 * A Backend is a stateless description of *how* to execute a circuit;
 * each run() call constructs a fresh simulator seeded for that call,
 * so a single Backend instance may be driven from many threads at
 * once. Capability flags let the registry and execution engine route
 * jobs (noise support, exactness, qubit ceilings)
 * without hard-coding per-simulator knowledge.
 */

#ifndef QRA_RUNTIME_BACKEND_HH
#define QRA_RUNTIME_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>

#include "circuit/circuit.hh"
#include "noise/noise_model.hh"
#include "sim/result.hh"

namespace qra {
namespace runtime {

/** What a backend can and cannot execute. */
struct BackendCapabilities
{
    /** Accepts a NoiseModel (density, trajectory). */
    bool supportsNoise = false;

    /** Attaches the exact outcome distribution to its Result. */
    bool exactDistribution = false;

    /** Executes Clifford circuits only. */
    bool cliffordOnly = false;

    /** Largest register the backend will accept. */
    std::size_t maxQubits = 0;

    /**
     * Whether a shot budget may be split across parallel shards. The
     * density backend is not. Cost is not the reason: with a
     * PlanCache installed (the JobQueue installs one) its exact
     * distribution is built once per (circuit, noise, fusion) however
     * many shards sample it. Splitting its budget would change the
     * shard seeds its samples draw from, and with them its pinned
     * counts. The engine runs unshardable backends as one shard.
     */
    bool shardable = true;
};

/** Uniform execution interface over one simulator class. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry name, e.g. "statevector". */
    virtual const std::string &name() const = 0;

    virtual const BackendCapabilities &capabilities() const = 0;

    /**
     * Why this backend cannot run @p circuit (with @p noise attached),
     * or the empty string when it can. The default implementation
     * checks the capability flags; backends add checks of their own.
     */
    virtual std::string rejectReason(const Circuit &circuit,
                                     const NoiseModel *noise) const;

    /** True when rejectReason() is empty. */
    bool supports(const Circuit &circuit,
                  const NoiseModel *noise = nullptr) const
    {
        return rejectReason(circuit, noise).empty();
    }

    /**
     * Execute @p circuit for @p shots shots.
     *
     * Stateless and thread-safe: a fresh simulator is constructed and
     * seeded with @p seed for this call alone.
     *
     * @param noise Optional noise model; must be null for backends
     *        without noise support (enforced by rejectReason).
     * @throws SimulationError when the circuit is unsupported.
     */
    virtual Result run(const Circuit &circuit, std::size_t shots,
                       std::uint64_t seed,
                       const NoiseModel *noise = nullptr) const = 0;
};

using BackendPtr = std::shared_ptr<const Backend>;

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_BACKEND_HH
