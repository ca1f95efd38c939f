/**
 * @file
 * Name -> factory registry of execution backends.
 *
 * The process-wide registry (BackendRegistry::global()) comes
 * pre-populated with the four builtin simulator backends; embedders
 * may register additional backends (hardware adapters, remote
 * executors) under new names. Backend instances returned by create()
 * are cached per registry, which is safe because backends are
 * stateless (see Backend).
 */

#ifndef QRA_RUNTIME_BACKEND_REGISTRY_HH
#define QRA_RUNTIME_BACKEND_REGISTRY_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/backend.hh"

namespace qra {
namespace runtime {

/** Thread-safe backend name -> factory map with auto-selection. */
class BackendRegistry
{
  public:
    using Factory = std::function<BackendPtr()>;

    /** An empty registry (global() is the pre-populated one). */
    BackendRegistry() = default;

    BackendRegistry(const BackendRegistry &) = delete;
    BackendRegistry &operator=(const BackendRegistry &) = delete;

    /**
     * Register @p factory under @p name, replacing any previous
     * registration (and dropping its cached instance).
     */
    void registerBackend(const std::string &name, Factory factory);

    bool contains(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Instantiate (or return the cached instance of) backend @p name.
     * @throws ValueError on unknown names, listing what is available.
     */
    BackendPtr create(const std::string &name) const;

    /**
     * Pick the best backend for @p circuit: the exact density backend
     * for noisy jobs that fit it (ancilla reuse included, up to its
     * record-branch cap), the trajectory backend for other noisy jobs,
     * the stabilizer backend for Clifford circuits past state-vector
     * reach, and the state-vector backend otherwise.
     * @throws SimulationError when no registered backend supports the
     *         circuit.
     */
    BackendPtr resolveAuto(const Circuit &circuit,
                           const NoiseModel *noise = nullptr) const;

    /**
     * create(name), with "auto" routed through resolveAuto(). This is
     * the one call sites should use for user-supplied names.
     */
    BackendPtr resolve(const std::string &name, const Circuit &circuit,
                       const NoiseModel *noise = nullptr) const;

    /** The process-wide registry, builtin backends pre-registered. */
    static BackendRegistry &global();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Factory> factories_;
    mutable std::map<std::string, BackendPtr> instances_;
};

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_BACKEND_REGISTRY_HH
