#include "routers/factory.hpp"

#include "common/log.hpp"
#include "routers/nonspec_router.hpp"
#include "routers/nox_router.hpp"
#include "routers/spec_router.hpp"
#include "routers/vc_router.hpp"

namespace nox {

std::unique_ptr<Router>
makeRouter(RouterArch arch, NodeId id, const Mesh &mesh,
           const RoutingTable &table, const RouterParams &params)
{
    if (params.vcCount > 1) {
        // §2.8: virtual channels are only explored on the
        // non-speculative baseline; a VC NoX is the paper's (and this
        // repo's) future work.
        if (arch != RouterArch::NonSpeculative) {
            fatal("vc_count=", params.vcCount,
                  " requires the non-speculative router (arch=nonspec)");
        }
        return std::make_unique<VcRouter>(id, mesh, table, params,
                                          params.vcCount);
    }
    switch (arch) {
      case RouterArch::NonSpeculative:
        return std::make_unique<NonSpecRouter>(id, mesh, table, params);
      case RouterArch::SpecFast:
        return std::make_unique<SpecRouter>(id, mesh, table, params,
                                            SpecRouter::Variant::Fast);
      case RouterArch::SpecAccurate:
        return std::make_unique<SpecRouter>(
            id, mesh, table, params, SpecRouter::Variant::Accurate);
      case RouterArch::Nox:
        return std::make_unique<NoxRouter>(id, mesh, table, params);
    }
    panic("unknown router architecture");
}

RouterFactory
routerFactoryFor(RouterArch arch)
{
    return [arch](NodeId id, const Mesh &mesh, const RoutingTable &table,
                  const RouterParams &params) {
        return makeRouter(arch, id, mesh, table, params);
    };
}

std::unique_ptr<Network>
makeNetwork(const NetworkParams &params, RouterArch arch)
{
    return std::make_unique<Network>(params, routerFactoryFor(arch));
}

} // namespace nox
