#include "stats/chi_square.hh"

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/error.hh"

namespace qra {
namespace stats {

namespace {

/** ln Gamma(x) via the Lanczos approximation (g=7, n=9). */
double
logGamma(double x)
{
    static const double coeffs[9] = {
        0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
        771.32342877765313,   -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6,
        1.5056327351493116e-7};

    if (x < 0.5) {
        // Reflection formula.
        return std::log(M_PI / std::sin(M_PI * x)) - logGamma(1.0 - x);
    }

    x -= 1.0;
    double acc = coeffs[0];
    for (int i = 1; i < 9; ++i)
        acc += coeffs[i] / (x + i);
    const double t = x + 7.5;
    return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
           std::log(acc);
}

/** Lower regularised incomplete gamma P(a, x) by series expansion. */
double
gammaPSeries(double a, double x)
{
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < 1000; ++i) {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if (std::abs(term) < std::abs(sum) * 1e-15)
            break;
    }
    return sum * std::exp(-x + a * std::log(x) - logGamma(a));
}

/** Upper regularised incomplete gamma by continued fraction. */
double
gammaQContinuedFraction(double a, double x)
{
    const double tiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 1000; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < tiny)
            d = tiny;
        c = b + an / c;
        if (std::abs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < 1e-15)
            break;
    }
    return std::exp(-x + a * std::log(x) - logGamma(a)) * h;
}

} // namespace

double
regularizedGammaQ(double a, double x)
{
    if (a <= 0.0)
        QRA_FATAL("regularizedGammaQ requires a > 0");
    if (x < 0.0)
        QRA_FATAL("regularizedGammaQ requires x >= 0");
    if (x == 0.0)
        return 1.0;
    if (x < a + 1.0)
        return 1.0 - gammaPSeries(a, x);
    return gammaQContinuedFraction(a, x);
}

ChiSquareResult
chiSquareTest(const Counts &observed, const Distribution &expected)
{
    const std::size_t total = totalShots(observed);
    if (total == 0)
        QRA_FATAL("chi-square test on zero observations");

    // Category set: union of observed and expected supports.
    std::set<std::uint64_t> keys;
    for (const auto &[k, n] : observed)
        keys.insert(k);
    for (const auto &[k, p] : expected)
        if (p > 0.0)
            keys.insert(k);

    ChiSquareResult result;
    std::size_t categories = 0;
    for (std::uint64_t key : keys) {
        double p = 0.0;
        const auto it = expected.find(key);
        if (it != expected.end())
            p = it->second;

        const auto obs_it = observed.find(key);
        const double obs =
            obs_it == observed.end()
                ? 0.0
                : static_cast<double>(obs_it->second);

        if (p <= 0.0) {
            if (obs > 0.0) {
                // Impossible outcome observed: certain rejection.
                result.statistic =
                    std::numeric_limits<double>::infinity();
                result.pValue = 0.0;
            }
            continue;
        }
        ++categories;
        const double exp = p * static_cast<double>(total);
        const double diff = obs - exp;
        result.statistic += diff * diff / exp;
    }

    result.degreesOfFreedom = categories > 1 ? categories - 1 : 0;
    if (std::isinf(result.statistic)) {
        result.pValue = 0.0;
    } else if (result.degreesOfFreedom == 0) {
        result.pValue = 1.0;
    } else {
        result.pValue = regularizedGammaQ(
            static_cast<double>(result.degreesOfFreedom) / 2.0,
            result.statistic / 2.0);
    }
    return result;
}

ChiSquareResult
pooledChiSquareTest(const Counts &observed, const Distribution &expected)
{
    constexpr double kMinExpected = 20.0;
    const double n = static_cast<double>(totalShots(observed));
    // Bin keys: kept outcomes keep theirs; kRest pools the small ones
    // and kImpossible collects outcomes @p expected does not have.
    constexpr std::uint64_t kRest = ~std::uint64_t{0};
    constexpr std::uint64_t kImpossible = kRest - 1;
    std::map<std::uint64_t, std::uint64_t> bin_of;
    Distribution binned;
    for (const auto &[key, p] : expected) {
        const std::uint64_t bin = p * n >= kMinExpected ? key : kRest;
        bin_of[key] = bin;
        binned[bin] += p;
    }
    const auto rest = binned.find(kRest);
    if (rest != binned.end() && rest->second * n < kMinExpected &&
        binned.size() > 1) {
        std::uint64_t smallest = kRest;
        for (const auto &[bin, p] : binned)
            if (bin != kRest &&
                (smallest == kRest || p < binned.at(smallest)))
                smallest = bin;
        binned[smallest] += rest->second;
        binned.erase(rest);
        for (auto &[key, bin] : bin_of)
            if (bin == kRest)
                bin = smallest;
    }
    Counts pooled;
    for (const auto &[key, count] : observed) {
        const auto it = bin_of.find(key);
        pooled[it == bin_of.end() ? kImpossible : it->second] += count;
    }
    return chiSquareTest(pooled, binned);
}

} // namespace stats
} // namespace qra
