#include "noc/routing.hpp"

#include "common/log.hpp"

namespace nox {

int
dorRoute(const Mesh &mesh, NodeId current, NodeId dest)
{
    NOX_ASSERT(dest >= 0 && dest < mesh.numNodes(),
               "route to invalid destination ", dest);
    const Coord c = mesh.coordOf(current);
    const Coord d = mesh.coordOf(mesh.routerOf(dest));
    if (c.x < d.x)
        return kPortEast;
    if (c.x > d.x)
        return kPortWest;
    if (c.y < d.y)
        return kPortSouth;
    if (c.y > d.y)
        return kPortNorth;
    return mesh.localPortOf(dest);
}

} // namespace nox
