/** @file Tests for Layout and layout selection strategies. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "noise/device_model.hh"
#include "transpile/decomposer.hh"
#include "transpile/layout.hh"

namespace qra {
namespace {

TEST(LayoutTest, IdentityLayout)
{
    Layout layout(4);
    for (Qubit q = 0; q < 4; ++q) {
        EXPECT_EQ(layout.physical(q), q);
        EXPECT_EQ(layout.virtualOf(q), q);
    }
}

TEST(LayoutTest, ExplicitLayoutValidatesBijection)
{
    EXPECT_NO_THROW(Layout({2, 0, 1}));
    EXPECT_THROW(Layout({0, 0, 1}), TranspileError);
    EXPECT_THROW(Layout({0, 5, 1}), TranspileError);
}

TEST(LayoutTest, SwapPhysicalUpdatesBothDirections)
{
    Layout layout(3);
    layout.swapPhysical(0, 2);
    EXPECT_EQ(layout.physical(0), 2u);
    EXPECT_EQ(layout.physical(2), 0u);
    EXPECT_EQ(layout.virtualOf(2), 0u);
    EXPECT_EQ(layout.virtualOf(0), 2u);
    EXPECT_EQ(layout.physical(1), 1u);
}

TEST(LayoutTest, OutOfRangeThrows)
{
    Layout layout(2);
    EXPECT_THROW(layout.physical(2), TranspileError);
    EXPECT_THROW(layout.virtualOf(9), TranspileError);
}

TEST(LayoutTest, TrivialLayoutRequiresFit)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit big(6);
    EXPECT_THROW(trivialLayout(big, map), TranspileError);
    Circuit ok(3);
    EXPECT_EQ(trivialLayout(ok, map).numQubits(), 5u);
}

TEST(LayoutTest, GreedyPlacesInteractingPairAdjacent)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    // Virtual qubits 0 and 1 interact heavily.
    Circuit c(3);
    c.cx(0, 1).cx(0, 1).cx(0, 1).cx(1, 2);
    const Layout layout = greedyLayout(c, map);
    EXPECT_TRUE(map.connected(layout.physical(0), layout.physical(1)));
}

TEST(LayoutTest, GreedyIsBijective)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(5);
    c.cx(0, 4).cx(4, 2).cx(1, 3);
    const Layout layout = greedyLayout(c, map);
    std::vector<bool> used(5, false);
    for (Qubit v = 0; v < 5; ++v) {
        const Qubit p = layout.physical(v);
        EXPECT_FALSE(used[p]);
        used[p] = true;
    }
}

TEST(LayoutTest, GreedyIsTheSameBeforeAndAfterCcxLowering)
{
    // The prepare pipeline lays out the raw payload, transpile() the
    // CCX-lowered one; both must pick the same placement.
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    DecomposeOptions ccx_only;
    ccx_only.decomposeSwap = false;
    ccx_only.decomposeCcx = true;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        Circuit c(5);
        for (int i = 0; i < 20; ++i) {
            // Three distinct operands.
            Qubit q[3];
            for (int k = 0; k < 3; ++k) {
                do
                    q[k] = static_cast<Qubit>(rng.below(5));
                while ((k > 0 && q[k] == q[0]) || (k > 1 && q[k] == q[1]));
            }
            if (rng.below(2) == 0)
                c.cx(q[0], q[1]);
            else
                c.ccx(q[0], q[1], q[2]);
        }
        EXPECT_EQ(greedyLayout(c, map).virtualToPhysical(),
                  greedyLayout(decompose(c, ccx_only), map)
                      .virtualToPhysical())
            << "seed " << seed;
    }
}

TEST(LayoutTest, GreedyHandlesNoInteractions)
{
    const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
    Circuit c(3);
    c.h(0).h(1).h(2);
    EXPECT_NO_THROW(greedyLayout(c, map));
}

} // namespace
} // namespace qra
