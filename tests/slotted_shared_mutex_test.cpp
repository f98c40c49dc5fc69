// The controller's swap lock (label: threads): a writer excludes every
// reader, readers hold it together even when more threads than slots share
// counters, and a writer gets through while readers keep arriving.
#include "common/slotted_shared_mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace sb {
namespace {

TEST(SlottedSharedMutexTest, WriterExcludesReaders) {
  // Readers check the plain counter against its atomic twin under the
  // shared lock; the writer bumps both under the exclusive one. A reader
  // inside with the writer would see them differ (and TSan would report
  // the plain counter's race).
  SlottedSharedMutex mutex;
  std::uint64_t plain = 0;
  std::atomic<std::uint64_t> twin{0};
  std::atomic<int> readers_inside{0};
  std::atomic<bool> mismatch{false};
  constexpr int kReaders = 4;
  constexpr int kReads = 20000;
  constexpr int kWrites = 2000;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        std::shared_lock lock(mutex);
        readers_inside.fetch_add(1, std::memory_order_relaxed);
        if (plain != twin.load(std::memory_order_relaxed)) mismatch = true;
        readers_inside.fetch_sub(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      std::unique_lock lock(mutex);
      if (readers_inside.load(std::memory_order_relaxed) != 0) mismatch = true;
      ++plain;
      twin.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(plain, static_cast<std::uint64_t>(kWrites));
}

TEST(SlottedSharedMutexTest, MoreThreadsThanSlotsShareTheLock) {
  // 80 threads, more than kSlots, so some slots count two readers. All of
  // them hold the shared lock at once (the latch would never open
  // otherwise); a writer that starts meanwhile gets in only after the
  // last of them leaves.
  constexpr int kThreads = 80;
  static_assert(kThreads > static_cast<int>(SlottedSharedMutex::kSlots));
  SlottedSharedMutex mutex;
  std::latch all_inside(kThreads);
  std::latch writer_waiting(1);
  std::atomic<int> inside{0};
  std::atomic<int> seen_by_writer{-1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      mutex.lock_shared();
      inside.fetch_add(1);
      all_inside.count_down();
      writer_waiting.wait();
      inside.fetch_sub(1);
      mutex.unlock_shared();
    });
  }
  all_inside.wait();
  EXPECT_EQ(inside.load(), kThreads);
  std::thread writer([&] {
    std::unique_lock lock(mutex);
    seen_by_writer = inside.load();
  });
  writer_waiting.count_down();
  writer.join();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(seen_by_writer.load(), 0);
  // And the lock is free again, shared and exclusive.
  mutex.lock_shared();
  mutex.unlock_shared();
  mutex.lock();
  mutex.unlock();
}

TEST(SlottedSharedMutexTest, WriterGetsThroughUnderReaderChurn) {
  // Four readers take and drop the shared lock back to back until told to
  // stop; the writer must still complete all its acquisitions, because an
  // arriving reader backs off while the writer's flag is up.
  constexpr int kReaders = 4;
  SlottedSharedMutex mutex;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::latch churning(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t mine = 0;
      do {
        std::shared_lock lock(mutex);
        if (++mine == 1) churning.count_down();
      } while (!stop.load(std::memory_order_relaxed));
      reads.fetch_add(mine);
    });
  }
  churning.wait();
  constexpr int kWrites = 500;
  int writes = 0;
  for (int i = 0; i < kWrites; ++i) {
    std::unique_lock lock(mutex);
    ++writes;
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(writes, kWrites);
  EXPECT_GE(reads.load(), static_cast<std::uint64_t>(kReaders));
}

}  // namespace
}  // namespace sb
