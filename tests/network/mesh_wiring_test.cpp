/**
 * @file
 * The one wiring path (noc/mesh_wiring): construction, every kill and
 * heal and the restore replay connect and sever ports through the
 * same link and terminal primitives. On an idle mesh, killing every
 * link and several routers and then healing them all must leave each
 * router output and NIC credit book exactly as a freshly built twin
 * has it, and the routing table must answer as DOR again — on every
 * architecture, the two-VC router, a plain mesh and a CMesh. A
 * checkpoint restore replays its dead set through the same path, even
 * onto a network built with faults the snapshot no longer has.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "obs/digest.hpp"
#include "routers/factory.hpp"
#include "routers/vc_router.hpp"
#include "snapshot/io.hpp"

namespace nox {
namespace {

struct Shape
{
    const char *name;
    RouterArch arch;
    int vcs;
    int concentration;
};

void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shape.name;
}

class OneWiringPath : public ::testing::TestWithParam<Shape>
{
  protected:
    /** A 4x4 mesh with fault injection armed; @p links and
     *  @p routers victims die at construction. */
    std::unique_ptr<Network>
    build(int links = 0, int routers = 0) const
    {
        NetworkParams p;
        p.width = 4;
        p.height = 4;
        p.concentration = GetParam().concentration;
        p.router.vcCount = GetParam().vcs;
        p.faults.enabled = true;
        p.faults.hardLinkFaults = links;
        p.faults.hardRouterFaults = routers;
        p.faults.seed = 0x3E57;
        return makeNetwork(p, GetParam().arch);
    }
};

/** Credits of lane @p vc of a VC router's output @p port. */
int
laneCredits(const Router &router, int port, int vc)
{
    return static_cast<const VcRouter &>(router).vcCredits(port, vc);
}

/** Routers whose kills the schedules below exercise: a corner, two
 *  interior routers and an edge router. */
const std::vector<NodeId> kVictims = {0, 5, 10, 7};

/** Every link of the 4x4 mesh once, from its lower-id end. */
std::vector<std::pair<NodeId, int>>
allLinks(const Mesh &mesh)
{
    std::vector<std::pair<NodeId, int>> links;
    for (NodeId r = 0; r < mesh.numRouters(); ++r) {
        for (int p = kPortNorth; p <= kPortWest; ++p) {
            const NodeId nb = mesh.neighbor(r, p);
            if (nb != kInvalidNode && r < nb)
                links.emplace_back(r, p);
        }
    }
    return links;
}

/** Compare every router output and NIC credit book with @p twin's. */
void
expectWiredAlike(Network &net, Network &twin, int vcs,
                 const std::string &when)
{
    for (NodeId r = 0; r < net.numRouters(); ++r) {
        const Router &a = net.router(r);
        const Router &b = twin.router(r);
        EXPECT_EQ(a.connectedOutputs(), b.connectedOutputs())
            << when << ": router " << r;
        for (int p = 0; p < a.numPorts(); ++p) {
            EXPECT_EQ(a.outputConnected(p), b.outputConnected(p))
                << when << ": router " << r << " port " << p;
            EXPECT_EQ(a.outputCredits(p), b.outputCredits(p))
                << when << ": router " << r << " port " << p;
            for (int v = 0; v < vcs && vcs > 1; ++v) {
                EXPECT_EQ(laneCredits(a, p, v), laneCredits(b, p, v))
                    << when << ": router " << r << " port " << p
                    << " lane " << v;
            }
        }
    }
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        EXPECT_EQ(net.nic(n).dead(), twin.nic(n).dead())
            << when << ": NIC " << n;
        for (int v = 0; v < vcs; ++v) {
            EXPECT_EQ(net.nic(n).injectCredits(v),
                      twin.nic(n).injectCredits(v))
                << when << ": NIC " << n << " lane " << v;
        }
    }
}

TEST_P(OneWiringPath, PristineMeshIsWiredAsTheTopologySays)
{
    auto net = build();
    const Mesh &mesh = net->mesh();
    const int vcs = GetParam().vcs;
    const int depth = RouterParams{}.bufferDepth;
    for (NodeId r = 0; r < mesh.numRouters(); ++r) {
        const Router &router = net->router(r);
        for (int p = kPortNorth; p <= kPortWest; ++p) {
            const bool link = mesh.neighbor(r, p) != kInvalidNode;
            EXPECT_EQ(router.outputConnected(p), link)
                << "router " << r << " port " << p;
            EXPECT_EQ(router.outputCredits(p), link ? depth : 0);
            for (int v = 0; v < vcs && vcs > 1; ++v)
                EXPECT_EQ(laneCredits(router, p, v), depth);
        }
        for (int t = 0; t < mesh.concentration(); ++t) {
            const int lp = kPortLocal + t;
            EXPECT_TRUE(router.outputConnected(lp));
            // The NIC sink holds one buffer's worth per lane.
            EXPECT_EQ(router.outputCredits(lp), depth * vcs);
        }
    }
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (int v = 0; v < vcs; ++v)
            EXPECT_EQ(net->nic(n).injectCredits(v), depth);
    }
    EXPECT_EQ(net->routingTable().rebuilds(), 1u);
}

TEST_P(OneWiringPath, KillEverythingThenHealMatchesAFreshMesh)
{
    const int vcs = GetParam().vcs;
    auto twin = build();
    const Mesh &mesh = twin->mesh();
    const auto links = allLinks(mesh);

    // Links first: the router kills then find every link dead in its
    // own right, and the router heals must leave them down. Routers
    // first: the link kills skip the dead routers' links, and only
    // the router heals bring those back.
    for (const bool links_first : {true, false}) {
        const std::string order =
            links_first ? "links first" : "routers first";
        auto net = build();
        FaultInjector &faults = *net->faultInjector();
        const Cycle kill_links = links_first ? 1 : 2;
        const Cycle kill_routers = links_first ? 2 : 1;
        const Cycle heal_routers = links_first ? 3 : 4;
        const Cycle heal_links = links_first ? 4 : 3;
        for (const auto &[r, p] : links) {
            faults.scheduleOneShot(FaultKind::LinkDead, kill_links, r, p);
            faults.scheduleOneShot(FaultKind::LinkHeal, heal_links, r, p);
        }
        for (NodeId r : kVictims) {
            faults.scheduleOneShot(FaultKind::RouterDead, kill_routers, r,
                                   -1);
            faults.scheduleOneShot(FaultKind::RouterHeal, heal_routers, r,
                                   -1);
        }

        net->run(3); // both kill batches applied
        for (NodeId r = 0; r < mesh.numRouters(); ++r) {
            for (int p = kPortNorth; p <= kPortWest; ++p) {
                EXPECT_FALSE(net->router(r).outputConnected(p))
                    << order << ": router " << r << " port " << p;
            }
        }
        for (NodeId r : kVictims) {
            for (int t = 0; t < mesh.concentration(); ++t) {
                const int lp = kPortLocal + t;
                EXPECT_FALSE(net->router(r).outputConnected(lp));
                EXPECT_TRUE(net->nic(mesh.terminalAt(r, lp)).dead());
            }
        }

        net->run(2); // both heal batches applied
        EXPECT_FALSE(net->faultMap().anyFault()) << order;
        expectWiredAlike(*net, *twin, vcs, order);
        for (NodeId r = 0; r < mesh.numRouters(); ++r) {
            for (NodeId d = 0; d < mesh.numNodes(); ++d) {
                ASSERT_EQ(net->routingTable().lookup(r, d),
                          dorRoute(mesh, r, d))
                    << order << ": router " << r << " dest " << d;
            }
        }
        EXPECT_EQ(net->routingTable().rebuilds(), 5u) << order;

        // The healed mesh carries traffic corner to corner both ways.
        const NodeId far = mesh.numNodes() - 1;
        for (const auto &[src, dst] : {std::pair<NodeId, NodeId>{0, far},
                                       {far, 0}, {1, far - 1}}) {
            EXPECT_NE(net->injectPacket(src, dst, 3, net->now(),
                                        TrafficClass::Synthetic),
                      kInvalidPacket);
        }
        ASSERT_TRUE(net->drain(10000)) << net->lastDrainReport().summary();
        EXPECT_EQ(net->stats().packetsEjected, 3u) << order;
        EXPECT_EQ(net->stats().faults.packetsLostHard, 0u) << order;
    }
}

TEST_P(OneWiringPath, RestoreHealsFaultsTheTargetWasBuiltWith)
{
    // Two links and a router die at construction and are healed at
    // cycle 3; the checkpoint at cycle 12 holds no dead set at all, so
    // a restore target (built with the same faults) must heal its own
    // before the replay, or it keeps hardware the donor has back.
    const int vcs = GetParam().vcs;
    auto donor = build(2, 1);
    const FaultMap &built = donor->faultMap();
    ASSERT_EQ(built.explicitDeadLinkCount(), 2);
    ASSERT_EQ(built.deadRouterCount(), 1);
    FaultInjector &faults = *donor->faultInjector();
    for (const auto &[r, p] : built.explicitDeadLinks())
        faults.scheduleOneShot(FaultKind::LinkHeal, 3, r, p);
    for (NodeId r : built.deadRouters())
        faults.scheduleOneShot(FaultKind::RouterHeal, 3, r, -1);
    donor->run(8);
    ASSERT_FALSE(donor->faultMap().anyFault());
    const NodeId far = donor->numNodes() - 1;
    for (const auto &[src, dst] : {std::pair<NodeId, NodeId>{0, far},
                                   {far, 0}, {far / 2, 1}}) {
        donor->injectPacket(src, dst, 4, donor->now(),
                            TrafficClass::Synthetic);
    }
    donor->run(4); // packets in flight

    snap::Writer w;
    donor->serialize(w);
    const std::vector<std::uint8_t> bytes = w.take();
    auto restored = build(2, 1);
    snap::Reader r(bytes.data(), bytes.size());
    restored->restore(r);
    r.expectEnd();

    EXPECT_FALSE(restored->faultMap().anyFault());
    expectWiredAlike(*restored, *donor, vcs, "after restore");
    for (int i = 0; i < 40; ++i) {
        ASSERT_EQ(donor->computeDigestStride(),
                  restored->computeDigestStride())
            << "cycle " << donor->now();
        donor->step();
        restored->step();
    }
    ASSERT_TRUE(restored->drain(10000))
        << restored->lastDrainReport().summary();
    EXPECT_EQ(restored->stats().packetsEjected, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRouters, OneWiringPath,
    ::testing::Values(
        Shape{"nonspec", RouterArch::NonSpeculative, 1, 1},
        Shape{"specfast", RouterArch::SpecFast, 1, 1},
        Shape{"specaccurate", RouterArch::SpecAccurate, 1, 1},
        Shape{"nox", RouterArch::Nox, 1, 1},
        Shape{"nonspec_vc2", RouterArch::NonSpeculative, 2, 1},
        Shape{"nonspec_cmesh", RouterArch::NonSpeculative, 1, 2},
        Shape{"specfast_cmesh", RouterArch::SpecFast, 1, 2},
        Shape{"specaccurate_cmesh", RouterArch::SpecAccurate, 1, 2},
        Shape{"nox_cmesh", RouterArch::Nox, 1, 2},
        Shape{"nonspec_vc2_cmesh", RouterArch::NonSpeculative, 2, 2}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace nox
