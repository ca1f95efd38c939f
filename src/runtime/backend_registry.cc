#include "runtime/backend_registry.hh"

#include "common/error.hh"
#include "common/strings.hh"
#include "runtime/builtin_backends.hh"

namespace qra {
namespace runtime {

void
BackendRegistry::registerBackend(const std::string &name,
                                 Factory factory)
{
    std::lock_guard<std::mutex> lock(mutex_);
    factories_[name] = std::move(factory);
    instances_.erase(name);
}

bool
BackendRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) > 0;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

BackendPtr
BackendRegistry::create(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto cached = instances_.find(name);
        cached != instances_.end())
        return cached->second;
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::vector<std::string> known;
        for (const auto &[key, factory] : factories_)
            known.push_back(key);
        throw ValueError("unknown backend '" + name +
                         "' (registered: " + join(known, ", ") + ")");
    }
    BackendPtr backend = it->second();
    instances_[name] = backend;
    return backend;
}

BackendPtr
BackendRegistry::resolveAuto(const Circuit &circuit,
                             const NoiseModel *noise) const
{
    // Preference order per job class; each candidate still has to
    // pass its own supports() check before it is chosen.
    std::vector<std::string> preference;
    if (noise != nullptr)
        preference = {"density", "trajectory"};
    else
        preference = {"stabilizer_if_large", "statevector",
                      "stabilizer", "trajectory"};

    std::vector<std::string> reasons;
    for (const std::string &entry : preference) {
        std::string name = entry;
        if (entry == "stabilizer_if_large") {
            // Up to 16 qubits the state vector samples a Clifford
            // circuit's shots from one evolution faster than the
            // tableau runs them (README, "Backends and the registry").
            if (circuit.numQubits() <= 16)
                continue;
            name = "stabilizer";
        }
        if (!contains(name))
            continue;
        const BackendPtr backend = create(name);
        const std::string reason =
            backend->rejectReason(circuit, noise);
        if (reason.empty())
            return backend;
        reasons.push_back(reason);
    }
    throw SimulationError(
        "no registered backend supports this circuit: " +
        join(reasons, "; "));
}

BackendPtr
BackendRegistry::resolve(const std::string &name, const Circuit &circuit,
                         const NoiseModel *noise) const
{
    if (name == "auto" || name.empty())
        return resolveAuto(circuit, noise);
    return create(name);
}

BackendRegistry &
BackendRegistry::global()
{
    static BackendRegistry *registry = [] {
        auto *r = new BackendRegistry();
        registerBuiltinBackends(*r);
        return r;
    }();
    return *registry;
}

} // namespace runtime
} // namespace qra
