#include "runtime/fault.hh"

#include <chrono>
#include <new>
#include <sstream>
#include <thread>

#include "common/error.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

namespace qra {
namespace runtime {

namespace {

/** Stream tag separating rate-site draws from every other splitSeed
    consumer of the plan seed. */
constexpr std::uint64_t kRateStream = 0xFA17ull;

/** Registered-once handle for the injection counter. */
const obs::CounterHandle &
faultsInjectedCounter()
{
    static const obs::CounterHandle handle =
        obs::MetricsRegistry::global().counter(
            "engine.faults_injected");
    return handle;
}

FaultKind
parseKind(const std::string &token, const std::string &element)
{
    if (token == "throw")
        return FaultKind::Throw;
    if (token == "stall")
        return FaultKind::Stall;
    if (token == "badalloc")
        return FaultKind::BadAlloc;
    throw ValueError("fault spec '" + element +
                     "': unknown kind '" + token +
                     "' (expected throw|stall|badalloc)");
}

std::size_t
parseCount(const std::string &token, const std::string &element)
{
    std::size_t pos = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(token, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos != token.size())
        throw ValueError("fault spec '" + element +
                         "': expected a number, got '" + token + "'");
    return static_cast<std::size_t>(value);
}

/** Apply the optional [:N|:perm] suffix of a site element. */
void
parseRepeat(const std::vector<std::string> &fields, std::size_t first,
            const std::string &element, FaultSite *site)
{
    if (fields.size() <= first)
        return;
    if (fields.size() > first + 1)
        throw ValueError("fault spec '" + element +
                         "': too many fields");
    if (fields[first] == "perm") {
        site->permanent = true;
        return;
    }
    site->times = parseCount(fields[first], element);
    if (site->times == 0)
        throw ValueError("fault spec '" + element +
                         "': repeat count must be >= 1");
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string piece;
    std::istringstream stream(text);
    while (std::getline(stream, piece, sep))
        out.push_back(piece);
    return out;
}

/** Stable lowercase name: "throw", "stall", "badalloc". */
const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Throw:
        return "throw";
      case FaultKind::Stall:
        return "stall";
      case FaultKind::BadAlloc:
        return "badalloc";
    }
    return "?";
}

} // namespace

const char *
faultScopeName(FaultSite::Scope scope)
{
    switch (scope) {
      case FaultSite::Scope::Shard:
        return "shard";
      case FaultSite::Scope::Wave:
        return "wave";
      case FaultSite::Scope::Prepare:
        return "prepare";
    }
    return "?";
}

bool
FaultPlan::shouldFire(FaultSite::Scope scope, std::size_t index,
                      std::size_t attempt, FaultKind *kind_out,
                      bool *permanent_out) const
{
    for (const FaultSite &site : sites) {
        if (site.scope != scope)
            continue;
        if (scope != FaultSite::Scope::Prepare && site.index != index)
            continue;
        if (!site.permanent && attempt >= site.times)
            continue;
        *kind_out = site.kind;
        *permanent_out = site.permanent;
        return true;
    }
    if (scope == FaultSite::Scope::Shard && shardFaultRate > 0.0) {
        Rng rng(splitSeed(splitSeed(splitSeed(seed, kRateStream),
                                    index),
                          attempt));
        if (rng.uniform() < shardFaultRate) {
            *kind_out = rateKind;
            *permanent_out = false;
            return true;
        }
    }
    return false;
}

std::string
FaultPlan::str() const
{
    std::ostringstream out;
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",";
        first = false;
    };
    for (const FaultSite &site : sites) {
        sep();
        out << faultScopeName(site.scope);
        if (site.scope != FaultSite::Scope::Prepare)
            out << ":" << site.index;
        out << ":" << faultKindName(site.kind);
        if (site.permanent)
            out << ":perm";
        else if (site.times != 1)
            out << ":" << site.times;
    }
    if (shardFaultRate > 0.0) {
        sep();
        out << "rate:" << shardFaultRate << ":"
            << faultKindName(rateKind);
    }
    if (seed != 0) {
        sep();
        out << "seed:" << seed;
    }
    if (stallMs != 25) {
        sep();
        out << "stall-ms:" << stallMs;
    }
    if (first)
        out << "(empty)";
    return out.str();
}

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    for (const std::string &element : splitOn(text, ',')) {
        if (element.empty())
            continue;
        const std::vector<std::string> fields = splitOn(element, ':');
        const std::string &head = fields[0];
        if (head == "shard" || head == "wave") {
            if (fields.size() < 3)
                throw ValueError(
                    "fault spec '" + element +
                    "': expected " + head + ":INDEX:KIND");
            FaultSite site;
            site.scope = head == "shard" ? FaultSite::Scope::Shard
                                         : FaultSite::Scope::Wave;
            site.index = parseCount(fields[1], element);
            site.kind = parseKind(fields[2], element);
            parseRepeat(fields, 3, element, &site);
            plan.sites.push_back(site);
        } else if (head == "prepare") {
            if (fields.size() < 2)
                throw ValueError("fault spec '" + element +
                                 "': expected prepare:KIND");
            FaultSite site;
            site.scope = FaultSite::Scope::Prepare;
            site.kind = parseKind(fields[1], element);
            parseRepeat(fields, 2, element, &site);
            plan.sites.push_back(site);
        } else if (head == "rate") {
            if (fields.size() != 3)
                throw ValueError("fault spec '" + element +
                                 "': expected rate:P:KIND");
            std::size_t pos = 0;
            double rate = 0.0;
            try {
                rate = std::stod(fields[1], &pos);
            } catch (const std::exception &) {
                pos = 0;
            }
            if (pos != fields[1].size() || rate < 0.0 || rate > 1.0)
                throw ValueError("fault spec '" + element +
                                 "': rate must be in [0, 1]");
            plan.shardFaultRate = rate;
            plan.rateKind = parseKind(fields[2], element);
        } else if (head == "seed") {
            if (fields.size() != 2)
                throw ValueError("fault spec '" + element +
                                 "': expected seed:N");
            plan.seed = parseCount(fields[1], element);
        } else if (head == "stall-ms") {
            if (fields.size() != 2)
                throw ValueError("fault spec '" + element +
                                 "': expected stall-ms:N");
            plan.stallMs = parseCount(fields[1], element);
        } else {
            throw ValueError(
                "fault spec '" + element +
                "': unknown element (expected shard|wave|prepare|"
                "rate|seed|stall-ms)");
        }
    }
    return plan;
}

void
maybeInjectFault(const FaultPlan *plan, FaultSite::Scope scope,
                 std::size_t index, std::size_t attempt)
{
    if (plan == nullptr || plan->empty())
        return;
    FaultKind kind = FaultKind::Throw;
    bool permanent = false;
    if (!plan->shouldFire(scope, index, attempt, &kind, &permanent))
        return;
    obs::count(faultsInjectedCounter());
    switch (kind) {
      case FaultKind::Stall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan->stallMs));
        return;
      case FaultKind::BadAlloc:
        throw std::bad_alloc();
      case FaultKind::Throw:
        break;
    }
    std::ostringstream msg;
    msg << "injected fault: " << faultScopeName(scope);
    if (scope != FaultSite::Scope::Prepare)
        msg << " " << index;
    msg << " attempt " << attempt << " (throw)";
    if (permanent)
        throw SimulationError(msg.str());
    throw TransientSimulationError(msg.str());
}

} // namespace runtime
} // namespace qra
