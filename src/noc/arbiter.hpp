/**
 * @file
 * Arbiters used by the routers' output allocation logic.
 *
 * The round-robin arbiter is the default everywhere (the paper's
 * fairness discussion assumes a fair arbiter); a fixed-priority and a
 * matrix (least-recently-served) arbiter are provided for ablation
 * studies.
 */

#ifndef NOX_NOC_ARBITER_HPP
#define NOX_NOC_ARBITER_HPP

#include <cstdint>
#include <vector>

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/**
 * Request bit-vector; bit i set means input i requests the output.
 * 64 bits wide so high-radix concentrated-mesh routers (radix
 * 4 + concentration) cannot silently truncate a request.
 */
using RequestMask = std::uint64_t;

/** Widest request vector any arbiter or router may be built with. */
inline constexpr int kMaxMaskBits = 64;

/** Single-input request mask for input @p i. */
constexpr RequestMask
maskBit(int i)
{
    return RequestMask{1} << i;
}

/** Mask with the low @p n bits set (all inputs of an n-wide port). */
constexpr RequestMask
maskAll(int n)
{
    return n >= kMaxMaskBits ? ~RequestMask{0}
                             : (RequestMask{1} << n) - 1;
}

/** Common arbiter interface: pick one set bit of the request mask. */
class Arbiter
{
  public:
    explicit Arbiter(int num_inputs) : numInputs_(num_inputs) {}
    virtual ~Arbiter() = default;

    /**
     * Grant one requesting input, updating internal priority state.
     * @return granted input index, or -1 when no bit is set.
     */
    virtual int grant(RequestMask requests) = 0;

    /** Reset priority state to the post-construction value. */
    virtual void reset() = 0;

    /** Capture / restore priority state (checkpointing). Stateless
     *  arbiters write nothing. */
    virtual void serialize(snap::Writer &) const {}
    virtual void restore(snap::Reader &) {}

    /**
     * Deliberately corrupt the priority state so the next grant can
     * differ (test/debug only; seeds a known divergence for the digest
     * ledger / trace_tool bisect machinery). Stateful arbiters also
     * bump a perturb counter that serialize() includes in the
     * canonical bytes: the priority nudge itself can be silently
     * erased by the next uncontested grant (which rewrites the
     * priority state wholesale), and a divergence beacon that can
     * evaporate before the next ledger stride is useless. The counter
     * makes the perturbation a permanent, checkpoint-faithful state
     * difference from the cycle it is applied. Stateless arbiters
     * have nothing to corrupt and keep the no-op default.
     */
    virtual void perturb() {}

  protected:
    int numInputs_;
};

/** Rotating-priority (round-robin) arbiter. */
class RoundRobinArbiter : public Arbiter
{
  public:
    explicit RoundRobinArbiter(int num_inputs);

    int grant(RequestMask requests) override;
    void reset() override;
    void serialize(snap::Writer &w) const override;
    void restore(snap::Reader &r) override;
    void perturb() override;

    /** Input that currently has highest priority (for tests). */
    int pointer() const { return pointer_; }

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    int pointer_;
    std::uint32_t perturbs_ = 0; ///< serialized; see Arbiter::perturb
};

/** Static fixed-priority arbiter (lowest index wins). */
class FixedPriorityArbiter : public Arbiter
{
  public:
    explicit FixedPriorityArbiter(int num_inputs) : Arbiter(num_inputs) {}

    int grant(RequestMask requests) override;
    void reset() override {}
};

/**
 * Matrix arbiter: grants the least-recently-served requester; strong
 * fairness, slightly larger state (n^2 bits in hardware).
 */
class MatrixArbiter : public Arbiter
{
  public:
    explicit MatrixArbiter(int num_inputs);

    int grant(RequestMask requests) override;
    void reset() override;
    void serialize(snap::Writer &w) const override;
    void restore(snap::Reader &r) override;
    void perturb() override;

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    /** prio_[i][j] true when input i beats input j. */
    std::vector<std::vector<bool>> prio_;
    std::uint32_t perturbs_ = 0; ///< serialized; see Arbiter::perturb
};

} // namespace nox

#endif // NOX_NOC_ARBITER_HPP
