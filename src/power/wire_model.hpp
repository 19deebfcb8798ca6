/**
 * @file
 * Repeated-wire channel model (after Balfour & Dally [1] and Mui et
 * al. [20], the papers the evaluation cites for channel delay and
 * energy estimation).
 */

#ifndef NOX_POWER_WIRE_MODEL_HPP
#define NOX_POWER_WIRE_MODEL_HPP

#include "power/technology.hpp"

namespace nox {

/** An optimally repeated point-to-point channel. */
class WireModel
{
  public:
    /**
     * @param tech technology constants
     * @param length_mm physical channel length
     * @param width_bits parallel wires (Table 1: 64-bit links)
     */
    WireModel(const Technology &tech, double length_mm, int width_bits);

    /** One-way propagation delay [ps]. */
    double delayPs() const;

    /**
     * Energy to move one flit across the channel [pJ] at the
     * technology's activity factor.
     */
    double energyPerFlitPj() const;

    /** Energy for a wasted (indeterminate-value) drive [pJ]; the
     *  speculative routers pay this on misspeculation. Indeterminate
     *  data toggles at the same mean activity as real data. */
    double wastedDriveEnergyPj() const { return energyPerFlitPj(); }

    /** Total switched capacitance per bit [fF]. */
    double capPerBitFf() const;

    /** Repeaters per wire at optimal spacing (for the area model). */
    int repeatersPerWire() const;

  private:
    Technology tech_;
    double lengthMm_;
    int widthBits_;
};

} // namespace nox

#endif // NOX_POWER_WIRE_MODEL_HPP
