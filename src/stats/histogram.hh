/**
 * @file
 * Counts/histogram utilities shared by the assertion analyser and the
 * benchmark harness.
 */

#ifndef QRA_STATS_HISTOGRAM_HH
#define QRA_STATS_HISTOGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qra {
namespace stats {

/** Integer-keyed outcome counts. */
using Counts = std::map<std::uint64_t, std::size_t>;

/** Probability distribution over integer outcomes. */
using Distribution = std::map<std::uint64_t, double>;

/** Total number of shots in @p counts. */
std::size_t totalShots(const Counts &counts);

/** Normalise counts into an empirical distribution. */
Distribution toDistribution(const Counts &counts);

/** Pretty one-line rendering "00:0.50 11:0.50". */
std::string distributionToString(const Distribution &dist,
                                 std::size_t width);

} // namespace stats
} // namespace qra

#endif // QRA_STATS_HISTOGRAM_HH
