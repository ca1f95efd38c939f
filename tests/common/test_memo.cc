/**
 * @file
 * Memo: hits, failed builds, the FIFO bound and its stale records,
 * and racing builders.
 */

#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/memo.hh"

namespace qra {
namespace {

using IntMemo = Memo<int>;

/** A build returning @p value. */
auto
value(int v)
{
    return [v]() { return std::make_shared<const int>(v); };
}

/** A build that fails the test if it runs. */
std::shared_ptr<const int>
mustNotBuild()
{
    ADD_FAILURE() << "unexpected build";
    return std::make_shared<const int>(-1);
}

TEST(Memo, HitAfterBuild)
{
    IntMemo memo;
    const IntMemo::Lookup first = memo.get(1, value(10));
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(*first.value, 10);

    const IntMemo::Lookup second = memo.get(1, mustNotBuild);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.value, first.value);
    EXPECT_EQ(second.evicted, 0u);
}

TEST(Memo, FailedBuildLeavesNoEntry)
{
    // Only the failing owner sees the exception: a caller racing its
    // build gets a private value.
    IntMemo memo;
    EXPECT_THROW(memo.get(1,
                          [&]() -> std::shared_ptr<const int> {
                              const IntMemo::Lookup racer =
                                  memo.get(1, value(12));
                              EXPECT_FALSE(racer.hit);
                              EXPECT_EQ(*racer.value, 12);
                              throw std::runtime_error("build failed");
                          }),
                 std::runtime_error);

    // The next caller builds (it does not inherit the exception) and
    // publishes, so the one after hits.
    const IntMemo::Lookup retry = memo.get(1, value(11));
    EXPECT_FALSE(retry.hit);
    EXPECT_EQ(*retry.value, 11);
    EXPECT_TRUE(memo.get(1, mustNotBuild).hit);
}

TEST(Memo, InsertPastTheBoundEvictsTheOldest)
{
    IntMemo memo;
    for (std::uint64_t key = 0; key < IntMemo::kMaxEntries; ++key)
        EXPECT_EQ(memo.get(key, value(0)).evicted, 0u) << key;

    const IntMemo::Lookup last =
        memo.get(IntMemo::kMaxEntries, value(1));
    EXPECT_FALSE(last.hit);
    EXPECT_EQ(last.evicted, 1u);

    EXPECT_TRUE(memo.get(1, mustNotBuild).hit);
    EXPECT_TRUE(memo.get(IntMemo::kMaxEntries, mustNotBuild).hit);
    // Key 0 was the oldest; re-inserting it evicts key 1 in turn.
    const IntMemo::Lookup again = memo.get(0, value(2));
    EXPECT_FALSE(again.hit);
    EXPECT_EQ(again.evicted, 1u);
    EXPECT_FALSE(memo.get(1, value(3)).hit);
}

TEST(Memo, StaleOrderRecordIsSkipped)
{
    // Keys 9 and 7 fail first, leaving stale records at the head of
    // the order (9's key is gone, 7's is re-inserted below); then key
    // 8 is inserted and key 7 re-inserted. At the bound both stale
    // records must be skipped, so the oldest live entry (8) goes and
    // the live 7 survives.
    IntMemo memo;
    for (const std::uint64_t key : {9, 7})
        EXPECT_THROW(memo.get(key,
                              []() -> std::shared_ptr<const int> {
                                  throw std::runtime_error("failed");
                              }),
                     std::runtime_error);
    memo.get(8, value(8));
    memo.get(7, value(7));
    for (std::uint64_t key = 100; key < 100 + IntMemo::kMaxEntries - 2;
         ++key)
        EXPECT_EQ(memo.get(key, value(0)).evicted, 0u) << key;

    EXPECT_EQ(memo.get(1000, value(0)).evicted, 1u);
    const IntMemo::Lookup live = memo.get(7, mustNotBuild);
    EXPECT_TRUE(live.hit);
    EXPECT_EQ(*live.value, 7);
    EXPECT_FALSE(memo.get(8, value(8)).hit);
}

TEST(Memo, RacerBuildsAPrivateCopy)
{
    IntMemo memo;
    std::latch building(1);
    std::latch release(1);
    IntMemo::Lookup owner;
    std::thread builder([&]() {
        owner = memo.get(5, [&]() {
            building.count_down();
            release.wait();
            return std::make_shared<const int>(50);
        });
    });
    building.wait();

    // The key is being built: racers neither wait nor hit, and their
    // copies are not published.
    const IntMemo::Lookup racer = memo.get(5, value(51));
    EXPECT_FALSE(racer.hit);
    EXPECT_EQ(*racer.value, 51);
    const IntMemo::Lookup second = memo.get(5, value(52));
    EXPECT_FALSE(second.hit);
    EXPECT_EQ(*second.value, 52);

    release.count_down();
    builder.join();
    EXPECT_FALSE(owner.hit);
    EXPECT_EQ(*owner.value, 50);
    const IntMemo::Lookup published = memo.get(5, mustNotBuild);
    EXPECT_TRUE(published.hit);
    EXPECT_EQ(published.value, owner.value);
}

/** Evict every entry of @p memo by filling it with fresh keys. */
void
evictAll(IntMemo &memo, std::uint64_t first_fresh_key)
{
    for (std::uint64_t i = 0; i < IntMemo::kMaxEntries; ++i)
        memo.get(first_fresh_key + i, value(0));
}

TEST(Memo, ReplacedOwnerNeitherPublishesNorErases)
{
    // An owner whose placeholder was evicted and re-inserted by a
    // successor mid-build leaves the successor's entry alone, whether
    // its own build succeeds or throws.
    IntMemo memo;
    const IntMemo::Lookup stale = memo.get(3, [&]() {
        evictAll(memo, 1000);
        EXPECT_FALSE(memo.get(3, value(31)).hit);
        return std::make_shared<const int>(30);
    });
    EXPECT_EQ(*stale.value, 30);
    EXPECT_EQ(*memo.get(3, mustNotBuild).value, 31);

    EXPECT_THROW(memo.get(4,
                          [&]() -> std::shared_ptr<const int> {
                              evictAll(memo, 2000);
                              memo.get(4, value(41));
                              throw std::runtime_error("build failed");
                          }),
                 std::runtime_error);
    const IntMemo::Lookup survivor = memo.get(4, mustNotBuild);
    EXPECT_TRUE(survivor.hit);
    EXPECT_EQ(*survivor.value, 41);
}

} // namespace
} // namespace qra
