/**
 * @file
 * Routing functions. The paper uses dimension-ordered routing
 * (Table 1) with lookahead route computation [Galles, SGI Spider], so
 * route lookup costs no pipeline stage in any evaluated router.
 */

#ifndef NOX_NOC_ROUTING_HPP
#define NOX_NOC_ROUTING_HPP

#include "noc/topology.hpp"
#include "noc/types.hpp"

namespace nox {

/**
 * Dimension-ordered (X then Y) routing. Deterministic and deadlock
 * free on a mesh. Returns kPortLocal when current == dest.
 */
int dorRoute(const Mesh &mesh, NodeId current, NodeId dest);

} // namespace nox

#endif // NOX_NOC_ROUTING_HPP
