#include "noc/arbiter.hpp"

#include <bit>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

RoundRobinArbiter::RoundRobinArbiter(int num_inputs)
    : Arbiter(num_inputs), pointer_(0)
{
    NOX_ASSERT(num_inputs > 0 && num_inputs <= kMaxMaskBits,
               "bad arbiter width");
}

int
RoundRobinArbiter::grant(RequestMask requests)
{
    if (requests == 0)
        return -1;
    // First set bit at or above the pointer, wrapping to the lowest
    // set bit — exactly the rotating search, without the modulo loop.
    const RequestMask above = requests >> pointer_;
    const int idx = above != 0
                        ? pointer_ + std::countr_zero(above)
                        : std::countr_zero(requests);
    pointer_ = idx + 1 == numInputs_ ? 0 : idx + 1;
    return idx;
}

void
RoundRobinArbiter::reset()
{
    pointer_ = 0;
    perturbs_ = 0;
}

template <typename Ar, typename Self>
void
RoundRobinArbiter::layout(Ar &ar, Self &self)
{
    snap::ioBounded(ar, self.pointer_, 0, self.numInputs_ - 1,
                    "round-robin pointer out of range");
    snap::io(ar, self.perturbs_);
}

void
RoundRobinArbiter::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
RoundRobinArbiter::restore(snap::Reader &r)
{
    layout(r, *this);
}

void
RoundRobinArbiter::perturb()
{
    pointer_ = pointer_ + 1 == numInputs_ ? 0 : pointer_ + 1;
    ++perturbs_;
}

int
FixedPriorityArbiter::grant(RequestMask requests)
{
    if (requests == 0)
        return -1;
    for (int i = 0; i < numInputs_; ++i) {
        if (requests & maskBit(i))
            return i;
    }
    return -1;
}

MatrixArbiter::MatrixArbiter(int num_inputs)
    : Arbiter(num_inputs)
{
    NOX_ASSERT(num_inputs > 0 && num_inputs <= kMaxMaskBits,
               "bad arbiter width");
    reset();
}

int
MatrixArbiter::grant(RequestMask requests)
{
    if (requests == 0)
        return -1;
    int winner = -1;
    for (int i = 0; i < numInputs_; ++i) {
        if (!(requests & maskBit(i)))
            continue;
        bool beaten = false;
        for (int j = 0; j < numInputs_; ++j) {
            if (j == i || !(requests & maskBit(j)))
                continue;
            if (prio_[j][i]) {
                beaten = true;
                break;
            }
        }
        if (!beaten) {
            winner = i;
            break;
        }
    }
    NOX_ASSERT(winner >= 0, "matrix arbiter priority relation broken");
    // Winner becomes lowest priority relative to everyone.
    for (int j = 0; j < numInputs_; ++j) {
        if (j != winner) {
            prio_[winner][j] = false;
            prio_[j][winner] = true;
        }
    }
    return winner;
}

void
MatrixArbiter::reset()
{
    prio_.assign(static_cast<std::size_t>(numInputs_),
                 std::vector<bool>(static_cast<std::size_t>(numInputs_),
                                   false));
    for (int i = 0; i < numInputs_; ++i) {
        for (int j = i + 1; j < numInputs_; ++j)
            prio_[i][j] = true; // initial total order by index
    }
    perturbs_ = 0;
}

template <typename Ar, typename Self>
void
MatrixArbiter::layout(Ar &ar, Self &self)
{
    for (auto &row : self.prio_) {
        for (auto &&b : row)
            snap::io(ar, b);
    }
    snap::io(ar, self.perturbs_);
}

void
MatrixArbiter::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
MatrixArbiter::restore(snap::Reader &r)
{
    layout(r, *this);
}

void
MatrixArbiter::perturb()
{
    // Swap the relative priority of the first input pair; the next
    // contested grant between them flips.
    if (numInputs_ < 2)
        return;
    prio_[0][1] = !prio_[0][1];
    prio_[1][0] = !prio_[1][0];
    ++perturbs_;
}

} // namespace nox
