/**
 * @file
 * Distances between outcome distributions: total variation and
 * Hellinger. Used to quantify how much assertion filtering moves a
 * noisy distribution toward the ideal one.
 */

#ifndef QRA_STATS_DISTANCE_HH
#define QRA_STATS_DISTANCE_HH

#include "stats/histogram.hh"

namespace qra {
namespace stats {

/** Total variation distance: (1/2) sum |p_i - q_i|, in [0, 1]. */
double totalVariation(const Distribution &p, const Distribution &q);

/** Binomial proportion 95% Wilson confidence half-width. */
double wilsonHalfWidth(double p_hat, std::size_t n);

} // namespace stats
} // namespace qra

#endif // QRA_STATS_DISTANCE_HH
