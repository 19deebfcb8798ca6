/**
 * @file
 * Cross-kernel lockstep: the test-side check of the activity kernel's
 * quiescence contracts.
 *
 * An activity-kernel network and its always-tick twin, built from the
 * same parameters and traffic, advance one cycle at a time. At every
 * cycle boundary they must agree on NetworkStats and on the canonical
 * state digest, component by component. A component that retires
 * while ticking it would still change its state falls behind its
 * always-ticked twin, so the first disagreement names the cycle and
 * the component (`router:R`, `nic:N`, ...) whose contract is wrong.
 */

#ifndef NOX_TESTS_SUPPORT_KERNEL_LOCKSTEP_HPP
#define NOX_TESTS_SUPPORT_KERNEL_LOCKSTEP_HPP

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "obs/digest.hpp"
#include "snapshot/io.hpp"

namespace nox::test {

/** The first cycle boundary at which two lockstepped networks
 *  disagreed. */
struct LockstepDivergence
{
    Cycle cycle = 0;          ///< now() of both networks at that boundary
    bool statsDiffer = false; ///< NetworkStats were not identical
    bool drainDiffers = false; ///< only one of the two had drained
    std::vector<std::string> components; ///< divergentComponents()
};

inline std::ostream &
operator<<(std::ostream &os, const LockstepDivergence &d)
{
    os << "kernels diverged at cycle " << d.cycle;
    if (d.statsDiffer)
        os << " (NetworkStats differ)";
    if (d.drainDiffers)
        os << " (only one network drained)";
    os << " in [";
    for (std::size_t i = 0; i < d.components.size(); ++i)
        os << (i ? " " : "") << d.components[i];
    return os << "]";
}

/**
 * Steps a reference network (the always-tick twin) and a network
 * under test side by side, comparing both after every cycle.
 */
class KernelLockstep
{
  public:
    KernelLockstep(Network &reference, Network &tested)
        : ref_(reference), test_(tested)
    {
    }

    /** Step both @p cycles times, calling @p before_step() ahead of
     *  every step (to offer both networks the same extra traffic);
     *  the first divergence, if any. */
    template <typename BeforeStep>
    std::optional<LockstepDivergence>
    run(Cycle cycles, BeforeStep &&before_step)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            before_step();
            ref_.step();
            test_.step();
            if (auto d = compare())
                return d;
        }
        return std::nullopt;
    }

    std::optional<LockstepDivergence>
    run(Cycle cycles)
    {
        return run(cycles, [] {});
    }

    /**
     * Drain both one cycle at a time (Network::drain semantics: the
     * sources are off while draining) until both have drained or
     * @p limit cycles elapse, comparing after every cycle. A network
     * that drains a cycle before its twin is a divergence too. Whether
     * the drain finished is in each network's lastDrainReport().
     */
    std::optional<LockstepDivergence>
    drain(Cycle limit)
    {
        for (Cycle i = 0; i < limit; ++i) {
            const bool ref_done = ref_.drain(1);
            const bool test_done = test_.drain(1);
            if (auto d = compare())
                return d;
            if (ref_done != test_done) {
                LockstepDivergence d;
                d.cycle = test_.now();
                d.drainDiffers = true;
                return d;
            }
            if (test_done)
                break;
        }
        return std::nullopt;
    }

  private:
    /** Compare the two networks at the current cycle boundary. */
    std::optional<LockstepDivergence>
    compare()
    {
        const DigestStride a = ref_.computeDigestStride(scratchRef_);
        const DigestStride b = test_.computeDigestStride(scratchTest_);
        const bool stats = identicalStats(ref_.stats(), test_.stats());
        if (stats && a == b)
            return std::nullopt;
        LockstepDivergence d;
        d.cycle = test_.now();
        d.statsDiffer = !stats;
        d.components = divergentComponents(a, b);
        return d;
    }

    Network &ref_;
    Network &test_;
    snap::Writer scratchRef_;
    snap::Writer scratchTest_;
};

} // namespace nox::test

#endif // NOX_TESTS_SUPPORT_KERNEL_LOCKSTEP_HPP
