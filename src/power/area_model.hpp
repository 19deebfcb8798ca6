/**
 * @file
 * Router floorplan / area model (§6.2, Figure 13).
 *
 * Layout adapted from Balfour & Dally [1], as in the paper: the
 * router datapath is a fixed-height strip; input SRAMs are stacked
 * with bit interleaving; crossbar width is set by wire spacing and
 * its height by the standard-cell row; channel repeaters and output
 * drivers occupy their own columns. The NoX variant appends a
 * decode + masking column (paper: +28.2 um horizontal, +17.2% tile
 * area). Allocation/abort/route logic fits in the spare corner and
 * does not change the envelope (per §6.2).
 */

#ifndef NOX_POWER_AREA_MODEL_HPP
#define NOX_POWER_AREA_MODEL_HPP

#include <string>
#include <vector>

#include "noc/types.hpp"
#include "power/technology.hpp"
#include "power/timing_model.hpp"

namespace nox {

/** One floorplan column. */
struct AreaBlock
{
    std::string name;
    double widthUm;
    double areaUm2;
};

/** A router tile's floorplan summary. */
struct AreaBreakdown
{
    RouterArch arch;
    std::vector<AreaBlock> blocks;
    double heightUm = 0.0;
    double widthUm = 0.0;

    double areaUm2() const { return widthUm * heightUm; }
};

/** Computes router tile floorplans for each architecture. */
class AreaModel
{
  public:
    AreaModel(const Technology &tech, const PhysicalParams &params);

    AreaBreakdown breakdown(RouterArch arch) const;

    /** Width of the NoX decode+masking column [um] (paper: 28.2). */
    double decodeMaskWidthUm() const;

    /** NoX tile area overhead vs the conventional router (paper:
     *  0.172). */
    double noxOverheadFraction() const;

  private:
    double sramColumnWidthUm() const;
    double xbarWidthUm() const;
    double repeaterColumnWidthUm() const;
    double driverColumnWidthUm() const;
    double controlColumnWidthUm() const;

    Technology tech_;
    PhysicalParams params_;
    double heightUm_;
};

} // namespace nox

#endif // NOX_POWER_AREA_MODEL_HPP
