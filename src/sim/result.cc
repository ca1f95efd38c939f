#include "sim/result.hh"

#include <sstream>

#include "common/error.hh"
#include "common/strings.hh"

namespace qra {

Result::Result(std::size_t num_clbits) : numClbits_(num_clbits)
{
}

void
Result::record(std::uint64_t outcome)
{
    record(outcome, 1);
}

void
Result::record(std::uint64_t outcome, std::size_t count)
{
    if (count == 0)
        return;
    counts_[outcome] += count;
    shots_ += count;
}

std::size_t
Result::count(std::uint64_t outcome) const
{
    const auto it = counts_.find(outcome);
    return it == counts_.end() ? 0 : it->second;
}

double
Result::probability(std::uint64_t outcome) const
{
    if (shots_ == 0)
        return 0.0;
    return static_cast<double>(count(outcome)) /
           static_cast<double>(shots_);
}

void
Result::setExactDistribution(std::map<std::uint64_t, double> dist)
{
    exact_ = std::move(dist);
}

void
Result::merge(const Result &other)
{
    if (numClbits_ != other.numClbits_)
        QRA_FATAL("cannot merge results with different register widths");
    // Pooled retained fraction: retention is kept/attempted, so the
    // merge must weight by *attempted* shots (recorded / fraction),
    // not recorded shots — total kept over total attempted. A side
    // with no recorded shots contributes no weight.
    auto attempted = [](std::size_t recorded, double fraction) {
        if (recorded == 0 || fraction <= 0.0)
            return 0.0;
        return static_cast<double>(recorded) / fraction;
    };
    const double total_attempted =
        attempted(shots_, retainedFraction_) +
        attempted(other.shots_, other.retainedFraction_);
    if (total_attempted > 0.0)
        retainedFraction_ =
            static_cast<double>(shots_ + other.shots_) /
            total_attempted;
    // Exact distributions are per-circuit, not per-shot, so merged
    // shards of the same job carry identical copies; adopt the other
    // side's when this result has none. Two *different* exact
    // distributions mean the caller is merging distinct jobs — keeping
    // either one would silently misdescribe the union, so refuse.
    if (!exact_ && other.exact_)
        exact_ = other.exact_;
    else if (exact_ && other.exact_ && *exact_ != *other.exact_)
        QRA_FATAL("cannot merge results with conflicting exact "
                  "distributions (distinct jobs?)");
    // Run metadata: a merged result stopped early if any
    // part did, and its budget is the sum of the parts' budgets
    // (tracked only once either side carries explicit bookkeeping).
    if (shotsRequested_ != 0 || other.shotsRequested_ != 0)
        shotsRequested_ = shotsRequested() + other.shotsRequested();
    stoppedEarly_ = stoppedEarly_ || other.stoppedEarly_;
    if (other.cancelled_) {
        cancelled_ = true;
        if (cancelReason_.empty())
            cancelReason_ = other.cancelReason_;
    }
    for (const auto &[key, n] : other.counts_)
        record(key, n);
}

std::string
Result::str() const
{
    std::ostringstream os;
    for (const auto &[key, n] : counts_) {
        os << toBitstring(key, numClbits_) << "  " << n << "  "
           << formatPercent(probability(key)) << "\n";
    }
    return os.str();
}

} // namespace qra
