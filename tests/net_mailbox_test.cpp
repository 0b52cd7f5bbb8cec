// net::mailbox, the SPSC ring with an overflow spill that carries every
// cross-reactor message (net/mailbox.h):
//   * FIFO order holds across a spill and back into the ring;
//   * every pushed value is destroyed exactly once — popped ones by the
//     consumer, still-queued ones (ring and spill) by the mailbox;
//   * one producer thread and one consumer thread move 10^5 messages in
//     order through a small ring that keeps spilling.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/mailbox.h"

using gf::net::mailbox;

namespace {

/// Records the id of every destroyed value that still owned one; a
/// moved-from value owns none.
struct tracked {
  static std::map<int, int>& destroyed() {
    static std::map<int, int> m;
    return m;
  }
  int id = -1;
  explicit tracked(int i) : id(i) {}
  tracked() = default;
  tracked(tracked&& o) noexcept : id(o.id) { o.id = -1; }
  tracked& operator=(tracked&& o) noexcept {
    if (id >= 0) ++destroyed()[id];  // overwritten: its value ends here
    id = o.id;
    o.id = -1;
    return *this;
  }
  tracked(const tracked&) = delete;
  tracked& operator=(const tracked&) = delete;
  ~tracked() {
    if (id >= 0) ++destroyed()[id];
  }
};

}  // namespace

TEST(NetMailbox, FifoAcrossSpill) {
  mailbox<int> box(4);
  // 4 fill the ring; the rest spill.
  for (int i = 0; i < 10; ++i) box.push(int{i});
  EXPECT_EQ(box.depth(), 10u);
  int v = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(box.try_pop(v));
    EXPECT_EQ(v, i);
  }
  // The ring has room again, but the spill is not empty: new values must
  // queue behind it.
  for (int i = 10; i < 14; ++i) box.push(int{i});
  for (int i = 3; i < 14; ++i) {
    ASSERT_TRUE(box.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(box.try_pop(v));
  // Drained: the ring takes values again.
  box.push(int{99});
  ASSERT_TRUE(box.try_pop(v));
  EXPECT_EQ(v, 99);
  EXPECT_EQ(box.depth(), 0u);
}

TEST(NetMailbox, EveryValueDestroyedExactlyOnce) {
  tracked::destroyed().clear();
  constexpr int kPushed = 12;
  {
    mailbox<tracked> box(4);
    for (int i = 0; i < kPushed; ++i) box.push(tracked(i));
    tracked out;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(box.try_pop(out));
      EXPECT_EQ(out.id, i);
    }
    // Wrap the ring: slots 0 and 1 take values again behind the spill.
    box.push(tracked(kPushed));
    box.push(tracked(kPushed + 1));
    ASSERT_TRUE(box.try_pop(out));
    EXPECT_EQ(out.id, 2);
    // `out` still holds 2; the box holds 3..13 in ring and spill.
  }
  const auto& d = tracked::destroyed();
  ASSERT_EQ(d.size(), static_cast<size_t>(kPushed + 2));
  for (int i = 0; i < kPushed + 2; ++i) {
    const auto it = d.find(i);
    ASSERT_NE(it, d.end()) << i;
    EXPECT_EQ(it->second, 1) << "value " << i;
  }
}

TEST(NetMailbox, ProducerConsumerThreadsKeepOrder) {
  constexpr uint64_t kMessages = 100000;
  // A small ring so the producer keeps outrunning the consumer into the
  // spill; heap-owning values so a lost or doubled slot shows up.
  mailbox<std::unique_ptr<uint64_t>> box(64);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kMessages; ++i)
      box.push(std::make_unique<uint64_t>(i));
  });
  uint64_t next = 0;
  bool in_order = true;
  std::unique_ptr<uint64_t> v;
  while (next < kMessages) {
    if (!box.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    in_order = in_order && v != nullptr && *v == next;
    ++next;
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_FALSE(box.try_pop(v));
}
