// Bounded SPSC mailbox with an unbounded overflow spill — the
// cross-reactor handoff primitive (net/server.h).
//
// Each (producer reactor → consumer reactor) pair owns one mailbox, so
// the fast path is a classic single-producer single-consumer ring: the
// producer writes a slot and releases `tail_`, the consumer acquires it
// and releases `head_`.  No locks, no CAS, no contention.
//
// push() never blocks and never fails.  A full ring spills to a
// mutex-guarded overflow queue instead of waiting — a reactor that is
// also a consumer must never block on a peer's backpressure, or two
// reactors flooding each other (or the STATS / SNAPSHOT / SYNC barrier
// parking a consumer) would deadlock.  FIFO order survives the spill:
// once anything sits in the overflow, later pushes follow it there until
// the consumer drains it empty.
//
// Ring slots are raw storage: a value lives in a slot only from the push
// that stores it to the pop that takes it, so building a mailbox costs one
// allocation, not one constructor per slot (a server builds one per
// reactor pair).
//
// The consumer is woken out-of-band (a byte on its wake pipe) by the
// caller; the mailbox itself carries no notification.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace gf::net {

template <typename T>
class mailbox {
 public:
  explicit mailbox(size_t capacity = 1024) {
    // Power-of-two ring so index masking is a single AND.
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    // new[] of a trivial type: the slots are left uninitialized.
    ring_.reset(new slot[cap]);
    cap_ = cap;
    mask_ = cap - 1;
  }

  ~mailbox() {
    // relaxed: destruction has no concurrent producer or consumer.
    const size_t tail = tail_.load(std::memory_order_relaxed);
    for (size_t h = head_.load(std::memory_order_relaxed); h != tail; ++h)
      at(h)->~T();
  }

  mailbox(const mailbox&) = delete;
  mailbox& operator=(const mailbox&) = delete;

  /// Producer side.  Never blocks: a full ring (or a non-empty overflow,
  /// to keep FIFO order) diverts to the spill queue.
  void push(T&& v) {
    // lane: single producer — only the owning reactor pushes here, so the
    // relaxed: tail read observes our own last store (single producer).
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (overflow_count_.load(std::memory_order_acquire) == 0 &&
        tail - head_.load(std::memory_order_acquire) < cap_) {
      ::new (static_cast<void*>(&ring_[tail & mask_])) T(std::move(v));
      tail_.store(tail + 1, std::memory_order_release);
      return;
    }
    std::lock_guard<std::mutex> lk(overflow_mu_);
    overflow_.push_back(std::move(v));
    overflow_count_.store(overflow_.size(), std::memory_order_release);
  }

  /// Consumer side.  False when empty.
  bool try_pop(T& out) {
    // lane: single consumer — only the owning reactor pops, so the
    // relaxed: head read observes our own last store (single consumer).
    const size_t head = head_.load(std::memory_order_relaxed);
    // Spill count first, then tail: every ring push older than a spill
    // happens before the store that counted it, so once this acquire sees
    // a spill, the tail load below sees every ring message older than it.
    // An empty ring after a non-zero count therefore means the overflow
    // front is the oldest message.  Loaded the other way round, a consumer
    // paused between the two loads could pop a fresh spill ahead of ring
    // messages pushed during the pause.
    const size_t spilled = overflow_count_.load(std::memory_order_acquire);
    if (head != tail_.load(std::memory_order_acquire)) {
      T* v = at(head);
      out = std::move(*v);
      v->~T();
      head_.store(head + 1, std::memory_order_release);
      return true;
    }
    if (spilled == 0) return false;
    std::lock_guard<std::mutex> lk(overflow_mu_);
    if (overflow_.empty()) return false;
    out = std::move(overflow_.front());
    overflow_.pop_front();
    overflow_count_.store(overflow_.size(), std::memory_order_release);
    return true;
  }

  /// Approximate queued-message count (ring + spill) for the
  /// gf_reactor_mailbox_depth gauge.  Racy by nature; monotone reads are
  /// not required of a depth gauge.
  size_t depth() const {
    // relaxed: racy depth gauge; approximate reads are the contract.
    const size_t t = tail_.load(std::memory_order_relaxed);
    const size_t h = head_.load(std::memory_order_relaxed);
    return (t - h) + overflow_count_.load(std::memory_order_relaxed);
  }

 private:
  struct slot {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  /// The live value in the slot of ring position i.
  T* at(size_t i) {
    return std::launder(reinterpret_cast<T*>(ring_[i & mask_].bytes));
  }

  std::unique_ptr<slot[]> ring_;
  size_t cap_ = 0;
  size_t mask_ = 0;
  // lane: head_ is written by the consumer only, tail_ by the producer
  // only; each side reads the other with acquire to see the slot contents.
  std::atomic<size_t> head_{0};
  std::atomic<size_t> tail_{0};
  std::mutex overflow_mu_;
  std::deque<T> overflow_;
  std::atomic<size_t> overflow_count_{0};
};

}  // namespace gf::net
