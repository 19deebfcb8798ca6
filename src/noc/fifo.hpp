/**
 * @file
 * Fixed-capacity flit FIFO modelling a router's input-buffer SRAM.
 */

#ifndef NOX_NOC_FIFO_HPP
#define NOX_NOC_FIFO_HPP

#include <cstddef>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "noc/flit.hpp"

namespace nox {

/**
 * Bounded FIFO of WireFlits. Capacity is enforced with assertions:
 * credit-based flow control must make overflow impossible, so an
 * overflow here is a simulator bug, not a recoverable condition.
 *
 * Storage is a flat ring buffer sized once at construction — like the
 * SRAM it models — so stage/pop on the per-cycle hot path are a slot
 * move plus an increment-wrap, with no allocator traffic. An arrival
 * is staged straight into the slot it will be read from.
 */
class FlitFifo
{
  public:
    explicit FlitFifo(std::size_t capacity)
        : capacity_(capacity),
          slots_(std::make_unique<WireFlit[]>(capacity))
    {
        NOX_ASSERT(capacity > 0, "FIFO capacity must be positive");
    }

    FlitFifo(FlitFifo &&) noexcept = default;
    FlitFifo &operator=(FlitFifo &&) noexcept = default;

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /** Append @p f at once (stage() then publish()). */
    void
    push(WireFlit &&f)
    {
        stage(std::move(f));
        publish();
    }

    /** Move an arriving value into the free slot behind the tail,
     *  unseen by empty()/size()/front()/pop() until publish(). Credit
     *  flow keeps that slot free; one value is staged at a time. */
    void
    stage(WireFlit &&f)
    {
        NOX_ASSERT(!full(), "input FIFO overflow (credit protocol bug)");
        NOX_ASSERT(!staged_, "two flits staged at one input in one cycle");
        slots_[tail_] = std::move(f);
        staged_ = true;
    }

    /** True while a staged value awaits publish(). */
    bool staged() const { return staged_; }

    /** Make the staged value the new tail entry. */
    void
    publish()
    {
        NOX_ASSERT(staged_, "publish() with nothing staged");
        staged_ = false;
        tail_ = next(tail_);
        size_ += 1;
    }

    const WireFlit &
    front() const
    {
        NOX_ASSERT(!empty(), "front() on empty FIFO");
        return slots_[head_];
    }

    /** Mutable head: a traversal moves it on in place, then drop()s. */
    WireFlit &
    front()
    {
        NOX_ASSERT(!empty(), "front() on empty FIFO");
        return slots_[head_];
    }

    /** i-th held flit from the head (0 == front()); for inspection
     *  and the snapshot layout, not the hot path. */
    const WireFlit &at(std::size_t i) const { return slots_[slot(i)]; }
    WireFlit &at(std::size_t i) { return slots_[slot(i)]; }

    WireFlit
    pop()
    {
        WireFlit f = std::move(front());
        drop();
        return f;
    }

    /** Remove the head without moving it out (moved on, or unused). */
    void
    drop()
    {
        NOX_ASSERT(!empty(), "drop() on empty FIFO");
        head_ = next(head_);
        size_ -= 1;
    }

  private:
    std::size_t next(std::size_t i) const
    {
        return i + 1 == capacity_ ? 0 : i + 1;
    }

    std::size_t
    slot(std::size_t i) const
    {
        NOX_ASSERT(i < size_, "at() index out of range");
        const std::size_t idx = head_ + i;
        return idx >= capacity_ ? idx - capacity_ : idx;
    }

    std::size_t capacity_;
    std::unique_ptr<WireFlit[]> slots_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t size_ = 0;
    bool staged_ = false; ///< slots_[tail_] holds an unpublished value
};

} // namespace nox

#endif // NOX_NOC_FIFO_HPP
