/**
 * @file
 * Snapshot layouts for the small value types shared across the NoC
 * layer: flits, FIFOs, energy counters and the aggregate statistics
 * block. Each is one io() overload that both writes and reads every
 * field, in a fixed order; components move these types with
 * snap::io() from their own layouts.
 */

#ifndef NOX_NOC_SNAPSHOT_CODEC_HPP
#define NOX_NOC_SNAPSHOT_CODEC_HPP

#include "noc/energy_events.hpp"
#include "noc/fifo.hpp"
#include "noc/flit.hpp"
#include "noc/network_stats.hpp"
#include "snapshot/io.hpp"

namespace nox::snap {

/** Encoded size of one FlitDesc (the floor Reader::count applies to
 *  every flit sequence). */
inline constexpr std::size_t kFlitDescBytes = 62;

template <typename Ar>
void
io(Ar &ar, Field<Ar, FlitDesc> d)
{
    fields(ar, d.uid, d.packet, d.seq, d.packetSize, d.src, d.dest,
           d.payload, d.createCycle, d.injectCycle);
    ioEnum(ar, d.cls, TrafficClass::Reply);
    fields(ar, d.vc, d.flowSeq);
}

template <typename Ar>
void
io(Ar &ar, Field<Ar, WireFlit> f)
{
    fields(ar, f.payload, f.encoded, f.vc, f.crc);
    ioSeq(ar, f.parts, kFlitDescBytes);
}

/** Capacity is construction geometry, checked on load. The restored
 *  FIFO holds the same flits in the same order (physical head
 *  position is irrelevant to behaviour). */
template <typename Ar>
void
io(Ar &ar, Field<Ar, FlitFifo> f)
{
    ioExpect(ar, std::uint64_t{f.capacity()},
             "FIFO capacity mismatch (wrong geometry)");
    std::uint64_t n = f.size();
    io(ar, n);
    check(ar, n <= f.capacity(), "FIFO occupancy exceeds capacity");
    if constexpr (Ar::kReading) {
        while (!f.empty())
            f.drop();
        for (std::uint64_t i = 0; i < n; ++i)
            f.push({});
    }
    for (std::size_t i = 0; i < n; ++i)
        io(ar, f.at(i));
}

template <typename Ar>
void
io(Ar &ar, Field<Ar, EnergyEvents> e)
{
    for (std::uint64_t EnergyEvents::*c : kEnergyEventCounters)
        io(ar, e.*c);
}

template <typename Ar>
void
io(Ar &ar, Field<Ar, NetworkStats> s)
{
    tag(ar, fourcc("STAT"));
    fields(ar, s.packetsInjected, s.flitsInjected, s.packetsEjected,
           s.flitsEjected, s.measureStart, s.measureEnd, s.latency,
           s.netLatency, s.latencyHist, s.latencyByClass,
           s.packetsMeasured, s.packetsMeasuredDone,
           s.flitsEjectedInWindow, s.flitsCreatedInWindow,
           s.maxSourceQueueFlits);
    Field<Ar, FaultStats> f = s.faults;
    fields(ar, f.faultsInjected, f.bitflipsInjected, f.dropsInjected,
           f.creditsLostInjected, f.faultsDetected, f.retransmissions,
           f.creditResyncs, f.corruptedEscapes, f.decodeMismatches,
           f.hardLinkFaults, f.hardRouterFaults, f.tableRebuilds,
           f.flitsLostHard, f.packetsLostHard, f.e2eRetransmits,
           f.dupSuppressed, f.deliveryFailures, f.linkHeals,
           f.routerHeals, f.unreachableRejected, f.flowReorders,
           f.ageAlarms);
}

} // namespace nox::snap

#endif // NOX_NOC_SNAPSHOT_CODEC_HPP
