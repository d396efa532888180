/**
 * @file
 * Ring: a FIFO over one power-of-two buffer that doubles when full.
 *
 * std::deque allocates and frees a block every few hundred bytes of
 * traffic, so a queue that only ever rolls forward (a channel, a
 * fetch window) pays malloc/free in steady state.  A Ring allocates
 * only when it grows past its high-water mark.
 */

#ifndef TS_SIM_RING_HH
#define TS_SIM_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace ts
{

template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The i-th element from the front. */
    T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T& operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T& front() { return buf_[head_]; }
    const T& front() const { return buf_[head_]; }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(v);
        ++size_;
    }

    /** Remove the front element.  Its slot keeps the old value until
     *  reused; pop() moves it out first. */
    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Move the front element out and remove it. */
    T
    pop()
    {
        T v = std::move(buf_[head_]);
        pop_front();
        return v;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        buf_ = std::move(next);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace ts

#endif // TS_SIM_RING_HH
