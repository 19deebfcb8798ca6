/**
 * @file
 * Per-router event counters consumed by the power model (§4 of the
 * paper: "a cycle-accurate C++ simulation model is complemented with
 * necessary event counters to form an accurate power model").
 */

#ifndef NOX_NOC_ENERGY_EVENTS_HPP
#define NOX_NOC_ENERGY_EVENTS_HPP

#include <array>
#include <cstdint>

namespace nox {

/** Raw activity counts; the power model assigns energy per event. */
struct EnergyEvents
{
    std::uint64_t bufferWrites = 0;   ///< flits written into input SRAM
    std::uint64_t bufferReads = 0;    ///< flits read from input SRAM
    std::uint64_t xbarInputDrives = 0; ///< input drivers active (per cycle)
    std::uint64_t xbarOutputCycles = 0; ///< output columns active
    std::uint64_t linkFlits = 0;      ///< productive inter-router flits
    std::uint64_t linkWastedCycles = 0; ///< invalid drives on tile links
    std::uint64_t localLinkFlits = 0; ///< NIC-side (inject/eject) flits
    std::uint64_t localLinkWasted = 0; ///< invalid drives on local links
    std::uint64_t arbDecisions = 0;   ///< output arbiter evaluations
    std::uint64_t allocEvals = 0;     ///< Switch-Next allocator evaluations
    std::uint64_t decodeOps = 0;      ///< XOR decode operations (NoX)
    std::uint64_t decodeLatches = 0;  ///< decode-register writes (NoX)
    std::uint64_t maskUpdates = 0;    ///< NoX mask recomputations
    std::uint64_t abortCycles = 0;    ///< NoX multi-flit abort cycles
    std::uint64_t misspecCycles = 0;  ///< speculative collision cycles
    std::uint64_t cycles = 0;         ///< router clock cycles elapsed

    /** Accumulate another counter block into this one. */
    void merge(const EnergyEvents &o);
};

/** Every counter, in declaration (and snapshot) order: merge(), diff()
 *  and the snapshot codec walk this one list. */
inline constexpr std::array kEnergyEventCounters{
    &EnergyEvents::bufferWrites,    &EnergyEvents::bufferReads,
    &EnergyEvents::xbarInputDrives, &EnergyEvents::xbarOutputCycles,
    &EnergyEvents::linkFlits,       &EnergyEvents::linkWastedCycles,
    &EnergyEvents::localLinkFlits,  &EnergyEvents::localLinkWasted,
    &EnergyEvents::arbDecisions,    &EnergyEvents::allocEvals,
    &EnergyEvents::decodeOps,       &EnergyEvents::decodeLatches,
    &EnergyEvents::maskUpdates,     &EnergyEvents::abortCycles,
    &EnergyEvents::misspecCycles,   &EnergyEvents::cycles,
};
static_assert(sizeof(EnergyEvents) ==
                  kEnergyEventCounters.size() * sizeof(std::uint64_t),
              "a counter missing from kEnergyEventCounters");

inline void
EnergyEvents::merge(const EnergyEvents &o)
{
    for (std::uint64_t EnergyEvents::*c : kEnergyEventCounters)
        this->*c += o.*c;
}

/** Counter delta between two snapshots (later - earlier). */
inline EnergyEvents
diff(const EnergyEvents &later, const EnergyEvents &earlier)
{
    EnergyEvents d;
    for (std::uint64_t EnergyEvents::*c : kEnergyEventCounters)
        d.*c = later.*c - earlier.*c;
    return d;
}

} // namespace nox

#endif // NOX_NOC_ENERGY_EVENTS_HPP
