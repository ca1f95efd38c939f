/**
 * @file
 * Chi-square goodness-of-fit test, the statistical engine behind the
 * statistical-assertion baseline (Huang & Martonosi, ISCA'19): after
 * measuring a breakpoint many times, the observed histogram is tested
 * against the distribution the programmer asserted.
 */

#ifndef QRA_STATS_CHI_SQUARE_HH
#define QRA_STATS_CHI_SQUARE_HH

#include "stats/histogram.hh"

namespace qra {
namespace stats {

/** Outcome of a goodness-of-fit test. */
struct ChiSquareResult
{
    double statistic = 0.0;
    std::size_t degreesOfFreedom = 0;
    /** P(chi2 >= statistic | H0). */
    double pValue = 1.0;

    /** Reject H0 at significance level @p alpha. */
    bool reject(double alpha = 0.05) const { return pValue < alpha; }
};

/**
 * Pearson chi-square test of @p observed counts against the expected
 * @p distribution (probabilities; missing keys mean probability 0).
 *
 * Categories with expected probability 0 but nonzero observations
 * force rejection (statistic = infinity). Expected counts below ~5
 * trigger the usual small-sample caveat but are still computed.
 */
ChiSquareResult chiSquareTest(const Counts &observed,
                              const Distribution &expected);

/**
 * chiSquareTest() after pooling: every outcome expected fewer than
 * 20 times joins one "rest" bin, and a rest bin that is
 * itself that small joins the smallest kept bin, so the chi-square
 * tail approximation holds far into the tail. An observed outcome
 * that @p expected lacks still forces rejection.
 */
ChiSquareResult pooledChiSquareTest(const Counts &observed,
                                    const Distribution &expected);

/**
 * Upper regularised incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a);
 * the chi-square survival function is Q(k/2, x/2). Exposed for tests.
 */
double regularizedGammaQ(double a, double x);

} // namespace stats
} // namespace qra

#endif // QRA_STATS_CHI_SQUARE_HH
