#include "stats/distance.hh"

#include <cmath>
#include <set>

namespace qra {
namespace stats {

namespace {

std::set<std::uint64_t>
keyUnion(const Distribution &p, const Distribution &q)
{
    std::set<std::uint64_t> keys;
    for (const auto &[k, v] : p)
        keys.insert(k);
    for (const auto &[k, v] : q)
        keys.insert(k);
    return keys;
}

double
lookup(const Distribution &d, std::uint64_t key)
{
    const auto it = d.find(key);
    return it == d.end() ? 0.0 : it->second;
}

} // namespace

double
totalVariation(const Distribution &p, const Distribution &q)
{
    double sum = 0.0;
    for (std::uint64_t key : keyUnion(p, q))
        sum += std::abs(lookup(p, key) - lookup(q, key));
    return 0.5 * sum;
}

double
wilsonHalfWidth(double p_hat, std::size_t n)
{
    if (n == 0)
        return 1.0;
    const double z = 1.959963984540054; // 97.5th normal percentile
    const double nd = static_cast<double>(n);
    return (z / (1.0 + z * z / nd)) *
           std::sqrt(p_hat * (1.0 - p_hat) / nd +
                     z * z / (4.0 * nd * nd));
}

} // namespace stats
} // namespace qra
