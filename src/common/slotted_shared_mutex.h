// A reader-writer lock whose readers do not share a cache line. The
// controller takes its swap lock shared on every realtime event and
// exclusively only to publish a plan or a provision; std::shared_mutex keeps
// one reader count, so every shared acquire and release is a
// read-modify-write on one line that all client threads pass around.
// Here each thread counts itself in one of kSlots padded reader counters,
// picked once per thread, and a writer raises a flag and waits until every
// counter reads zero.
//
//  - lock_shared increments the thread's slot and then reads the writer
//    flag; lock stores the flag and then reads the slots. All four are
//    seq_cst, so at least one side sees the other: a reader that finds the
//    flag up undoes its increment and waits for the flag to drop, and a
//    writer waits for every reader it finds.
//  - Writers serialize on writer_mutex_, held for the whole exclusive
//    section. An arriving reader backs off while a writer holds the lock,
//    so a writer waits only for the readers already inside, however many
//    keep arriving.
//  - Both sides sleep in std::atomic::wait. A reader that leaves its slot
//    while the flag is up wakes the writer; the writer's unlock wakes the
//    readers.
//
// The interface is the standard shared-mutex one (lock/unlock,
// lock_shared/unlock_shared), so std::unique_lock and std::shared_lock take
// it unchanged. Not recursive, and a shared hold is released on the thread
// that took it: the slot belongs to the thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace sb {

class SlottedSharedMutex {
 public:
  /// Reader counters; more threads than this share slots round-robin.
  static constexpr std::size_t kSlots = 64;

  SlottedSharedMutex() = default;
  SlottedSharedMutex(const SlottedSharedMutex&) = delete;
  SlottedSharedMutex& operator=(const SlottedSharedMutex&) = delete;

  void lock_shared() {
    std::atomic<std::uint32_t>& readers = slots_[slot_index()].readers;
    for (;;) {
      readers.fetch_add(1, std::memory_order_seq_cst);
      if (writer_.load(std::memory_order_seq_cst) == 0) return;
      leave(readers);
      writer_.wait(1, std::memory_order_seq_cst);
    }
  }

  void unlock_shared() { leave(slots_[slot_index()].readers); }

  void lock() {
    writer_mutex_.lock();
    writer_.store(1, std::memory_order_seq_cst);
    for (Slot& slot : slots_) {
      for (std::uint32_t n = slot.readers.load(std::memory_order_seq_cst);
           n != 0; n = slot.readers.load(std::memory_order_seq_cst)) {
        slot.readers.wait(n, std::memory_order_seq_cst);
      }
    }
  }

  void unlock() {
    writer_.store(0, std::memory_order_seq_cst);
    writer_.notify_all();
    writer_mutex_.unlock();
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> readers{0};
  };

  /// The calling thread's slot, assigned round-robin on its first use.
  static std::size_t slot_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return index;
  }

  /// Takes one reader off `readers`, waking a writer that may wait on it.
  void leave(std::atomic<std::uint32_t>& readers) {
    readers.fetch_sub(1, std::memory_order_seq_cst);
    if (writer_.load(std::memory_order_seq_cst) != 0) readers.notify_all();
  }

  Slot slots_[kSlots];
  /// 1 while a writer holds or is taking the lock. Readers only read it, so
  /// its line stays shared in every reader's cache between writers.
  alignas(64) std::atomic<std::uint32_t> writer_{0};
  std::mutex writer_mutex_;
};

}  // namespace sb
