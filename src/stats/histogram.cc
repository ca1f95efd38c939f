#include "stats/histogram.hh"

#include <algorithm>
#include <sstream>

#include "common/error.hh"
#include "common/strings.hh"

namespace qra {
namespace stats {

std::size_t
totalShots(const Counts &counts)
{
    std::size_t total = 0;
    for (const auto &[key, n] : counts)
        total += n;
    return total;
}

Distribution
toDistribution(const Counts &counts)
{
    const std::size_t total = totalShots(counts);
    Distribution dist;
    if (total == 0)
        return dist;
    for (const auto &[key, n] : counts)
        dist[key] = static_cast<double>(n) / static_cast<double>(total);
    return dist;
}

std::string
distributionToString(const Distribution &dist, std::size_t width)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[key, p] : dist) {
        if (!first)
            os << " ";
        first = false;
        os << toBitstring(key, width) << ":" << formatDouble(p, 3);
    }
    return os.str();
}

} // namespace stats
} // namespace qra
