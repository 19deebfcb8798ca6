/**
 * @file
 * Input-buffer SRAM model (the paper generates these with a memory
 * compiler and SPICE-extracts timing/power; we substitute a first-
 * order 6T-array model calibrated to the same headline numbers:
 * 248 ps read access for the 4-deep 64-bit FIFO).
 */

#ifndef NOX_POWER_SRAM_MODEL_HPP
#define NOX_POWER_SRAM_MODEL_HPP

#include "power/technology.hpp"

namespace nox {

/** A small single-read single-write SRAM FIFO array. */
class SramModel
{
  public:
    /**
     * @param tech technology constants
     * @param words FIFO depth (Table 1: 4)
     * @param bits_per_word flit width (Table 1: 64)
     */
    SramModel(const Technology &tech, int words, int bits_per_word);

    /** Read access time [ps] (calibrated: 248 ps, §6.1). */
    double readDelayPs() const;

    /** Energy of one read / write access [pJ]. */
    double readEnergyPj() const;
    double writeEnergyPj() const;

    /** Macro area including periphery [um^2]. */
    double areaUm2() const;

    int words() const { return words_; }

  private:
    Technology tech_;
    int words_;
    int bits_;
};

} // namespace nox

#endif // NOX_POWER_SRAM_MODEL_HPP
