#include "common/logging.hh"

#include <cstdlib>
#include <cstring>
#include <iostream>

namespace qra {

namespace {

/** Whether QRA_LOG=silent; any other level lets warnings through. */
bool
silencedAtStartup()
{
    const char *env = std::getenv("QRA_LOG");
    if (env == nullptr)
        return false;
    if (std::strcmp(env, "silent") == 0)
        return true;
    for (const char *level : {"debug", "info", "warn"}) {
        if (std::strcmp(env, level) == 0)
            return false;
    }
    // Unrecognised value: keep the default rather than surprise-
    // silencing; one warning so the typo is discoverable.
    std::cerr << "[qra:warn] unrecognised QRA_LOG value \"" << env
              << "\" (expected debug|info|warn|silent)\n";
    return false;
}

/** Written once, before main; only read afterwards. */
const bool kSilenced = silencedAtStartup();

} // namespace

void
logWarn(const std::string &msg)
{
    if (kSilenced)
        return;
    // One write per line: interleaved-safe enough for stderr lines.
    std::cerr << "[qra:warn] " + msg + "\n";
}

} // namespace qra
