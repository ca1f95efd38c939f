/** @file Tests for the CouplingMap graph. */


#include <gtest/gtest.h>

#include "common/error.hh"
#include "transpile/coupling_map.hh"

namespace qra {
namespace {

CouplingMap
lineMap(std::size_t n)
{
    CouplingMap map(n);
    for (Qubit q = 0; q + 1 < n; ++q)
        map.addEdge(q, q + 1);
    return map;
}

TEST(CouplingMapTest, EdgeBasics)
{
    CouplingMap map(3);
    map.addEdge(0, 1);
    EXPECT_TRUE(map.hasEdge(0, 1));
    EXPECT_FALSE(map.hasEdge(1, 0));
    EXPECT_TRUE(map.connected(0, 1));
    EXPECT_TRUE(map.connected(1, 0));
    EXPECT_FALSE(map.connected(0, 2));
}

TEST(CouplingMapTest, Validation)
{
    CouplingMap map(2);
    EXPECT_THROW(map.addEdge(0, 0), TranspileError);
    EXPECT_THROW(map.addEdge(0, 5), TranspileError);
    EXPECT_THROW(CouplingMap(0), TranspileError);
}

TEST(CouplingMapTest, DuplicateEdgeIgnored)
{
    CouplingMap map(2);
    map.addEdge(0, 1);
    map.addEdge(0, 1);
    EXPECT_EQ(map.edges().size(), 1u);
}

TEST(CouplingMapTest, Neighbors)
{
    CouplingMap map(4);
    map.addEdge(0, 1);
    map.addEdge(2, 0);
    const auto nb = map.neighbors(0);
    EXPECT_EQ(nb.size(), 2u);
}

TEST(CouplingMapTest, ShortestPathOnLine)
{
    const CouplingMap map = lineMap(5);
    const auto path = map.shortestPath(0, 4);
    EXPECT_EQ(path, (std::vector<Qubit>{0, 1, 2, 3, 4}));
    EXPECT_EQ(map.shortestPath(3, 3), (std::vector<Qubit>{3}));
}

TEST(CouplingMapTest, PathIgnoresDirection)
{
    CouplingMap map(3);
    map.addEdge(1, 0);
    map.addEdge(2, 1);
    // 0 -> 2 exists undirected.
    EXPECT_EQ(map.shortestPath(0, 2), (std::vector<Qubit>{0, 1, 2}));
}

TEST(CouplingMapTest, Disconnected)
{
    CouplingMap map(4);
    map.addEdge(0, 1);
    map.addEdge(2, 3);
    EXPECT_FALSE(map.isConnected());
    EXPECT_TRUE(map.shortestPath(0, 3).empty());
}

TEST(CouplingMapTest, StrListsEdges)
{
    CouplingMap map(2);
    map.addEdge(1, 0);
    EXPECT_EQ(map.str(), "1->0");
}

} // namespace
} // namespace qra
