/**
 * @file
 * logWarn: what QRA_LOG, read at startup, lets through, and whole
 * lines from concurrent emitters.
 *
 * QRA_LOG is read once, before main, so each of its values is
 * checked in a fresh process: a threadsafe-style death test re-runs
 * this binary with the variable set and matches what it writes to
 * stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"

using namespace qra;

namespace {

/** Sets QRA_LOG for this test and restores it on scope exit. */
class QraLogGuard
{
  public:
    QraLogGuard()
    {
        if (const char *old = std::getenv("QRA_LOG"))
            saved_ = old;
    }
    ~QraLogGuard()
    {
        if (saved_)
            setenv("QRA_LOG", saved_->c_str(), 1);
        else
            unsetenv("QRA_LOG");
    }
    void set(const char *value) { setenv("QRA_LOG", value, 1); }
    void unset() { unsetenv("QRA_LOG"); }

  private:
    std::optional<std::string> saved_;
};

/** One warning, then a clean exit. */
void
warnAndExit()
{
    logWarn("w");
    std::fflush(stderr);
    std::exit(0);
}

TEST(Logger, QraLogSetsTheStartupLevel)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    QraLogGuard guard;
    const struct
    {
        const char *value;
        const char *stderrText;
    } cases[] = {
        // debug and info are accepted and, like warn, let warnings
        // through.
        {"debug", "[qra:warn] w\n"},
        {"info", "[qra:warn] w\n"},
        {"warn", "[qra:warn] w\n"},
        {"silent", ""},
        {"loud",
         "[qra:warn] unrecognised QRA_LOG value \"loud\" "
         "(expected debug|info|warn|silent)\n[qra:warn] w\n"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.value);
        guard.set(c.value);
        EXPECT_EXIT(warnAndExit(), testing::ExitedWithCode(0),
                    testing::Eq(c.stderrText));
    }
    // Unset, warnings go through.
    guard.unset();
    EXPECT_EXIT(warnAndExit(), testing::ExitedWithCode(0),
                testing::Eq("[qra:warn] w\n"));
}

TEST(Logger, ConcurrentEmittersWriteWholeLines)
{
    testing::internal::CaptureStderr();
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < 200; ++i)
                logWarn("tick " + std::to_string(i));
        });
    for (auto &w : workers)
        w.join();
    // Emitted lines, if any (QRA_LOG=silent emits none), are whole.
    const std::string out = testing::internal::GetCapturedStderr();
    std::size_t begin = 0;
    while (begin < out.size()) {
        const std::size_t end = out.find('\n', begin);
        ASSERT_NE(end, std::string::npos);
        const std::string line = out.substr(begin, end - begin);
        const std::string prefix = "[qra:warn] tick ";
        EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
        EXPECT_GT(line.size(), prefix.size()) << line;
        EXPECT_EQ(line.find_first_not_of("0123456789", prefix.size()),
                  std::string::npos)
            << line;
        begin = end + 1;
    }
}

} // namespace
