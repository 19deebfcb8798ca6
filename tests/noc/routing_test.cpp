/** @file Unit tests for dimension-ordered routing. */

#include <gtest/gtest.h>

#include "noc/routing.hpp"

namespace nox {
namespace {

TEST(DorRoute, XBeforeY)
{
    const Mesh m(8, 8);
    // From (0,0) to (3,5): go East until x matches, then South.
    EXPECT_EQ(dorRoute(m, m.nodeAt({0, 0}), m.nodeAt({3, 5})),
              kPortEast);
    EXPECT_EQ(dorRoute(m, m.nodeAt({3, 0}), m.nodeAt({3, 5})),
              kPortSouth);
    EXPECT_EQ(dorRoute(m, m.nodeAt({5, 5}), m.nodeAt({3, 5})),
              kPortWest);
    EXPECT_EQ(dorRoute(m, m.nodeAt({3, 7}), m.nodeAt({3, 5})),
              kPortNorth);
}

TEST(DorRoute, LocalAtDestination)
{
    const Mesh m(8, 8);
    EXPECT_EQ(dorRoute(m, 12, 12), kPortLocal);
}

TEST(DorRoute, EveryPairTerminatesWithMinimalHops)
{
    const Mesh m(8, 8);
    for (NodeId s = 0; s < m.numNodes(); ++s) {
        for (NodeId d = 0; d < m.numNodes(); ++d) {
            NodeId cur = s;
            int hops = 0;
            while (cur != d) {
                const int port = dorRoute(m, cur, d);
                ASSERT_NE(port, kPortLocal);
                cur = m.neighbor(cur, port);
                ASSERT_NE(cur, kInvalidNode);
                ++hops;
                ASSERT_LE(hops, 14);
            }
            EXPECT_EQ(hops, m.hopDistance(s, d));
            EXPECT_EQ(dorRoute(m, cur, d), kPortLocal);
        }
    }
}

TEST(DorRoute, XYNeverTurnsFromYToX)
{
    // Once a packet moves vertically it must never move horizontally
    // again — the invariant that makes DOR deadlock-free.
    const Mesh m(8, 8);
    for (NodeId s = 0; s < m.numNodes(); ++s) {
        for (NodeId d = 0; d < m.numNodes(); ++d) {
            NodeId cur = s;
            bool moved_vertically = false;
            while (cur != d) {
                const int port = dorRoute(m, cur, d);
                const bool vertical =
                    (port == kPortNorth || port == kPortSouth);
                if (moved_vertically) {
                    ASSERT_TRUE(vertical);
                }
                moved_vertically |= vertical;
                cur = m.neighbor(cur, port);
            }
        }
    }
}

} // namespace
} // namespace nox
