// ShardLock (core/shard_lock.h): the per-shard reader-writer lock behind
// ShardedFilter. Checks mutual exclusion between the reader fast path and
// writers, that a writer drains in-flight readers, that a reader arriving
// under a writer takes the fallback and then proceeds, and that threads
// beyond the slot count share slots without losing counts.

#include "core/shard_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace bbf {
namespace {

using std::chrono::milliseconds;

// Long enough that a lock which let the waiter through would almost
// surely have done so; a correct lock never depends on it.
constexpr milliseconds kGrace{50};

// Readers check an invariant (a == b) that the writer breaks and restores
// inside its critical section. The pair is deliberately non-atomic: under
// ThreadSanitizer any overlap is also reported as a data race.
TEST(ShardLock, WriterNeverOverlapsReaders) {
  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  constexpr int kWrites = 500;
  ShardLock lock;
  uint64_t a = 0;
  uint64_t b = 0;
  std::atomic<bool> writer_in{false};
  std::atomic<int> writers_done{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> overlaps{0};
  std::atomic<uint64_t> reads{0};
  std::latch start(kReaders + kWriters);

  std::vector<std::thread> pool;
  for (int w = 0; w < kWriters; ++w) {
    pool.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kWrites; ++i) {
        std::unique_lock guard(lock);
        if (writer_in.exchange(true)) overlaps.fetch_add(1);
        ++a;
        std::this_thread::yield();
        ++b;
        writer_in.store(false);
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    pool.emplace_back([&] {
      start.arrive_and_wait();
      do {
        std::shared_lock guard(lock);
        if (writer_in.load()) overlaps.fetch_add(1);
        if (a != b) torn.fetch_add(1);
        reads.fetch_add(1);
      } while (writers_done.load() < kWriters);
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(overlaps.load(), 0u);
  EXPECT_EQ(a, uint64_t{kWriters} * kWrites);
  EXPECT_EQ(b, a);
  EXPECT_GT(reads.load(), 0u);
}

TEST(ShardLock, LockWaitsForInFlightReaders) {
  ShardLock lock;
  std::latch reader_in(1);
  std::atomic<bool> release{false};
  std::atomic<bool> acquired{false};

  std::thread reader([&] {
    std::shared_lock guard(lock);
    reader_in.count_down();
    while (!release.load()) std::this_thread::yield();
    EXPECT_FALSE(acquired.load());
  });
  reader_in.wait();
  std::thread writer([&] {
    std::unique_lock guard(lock);
    acquired.store(true);
  });
  std::this_thread::sleep_for(kGrace);
  EXPECT_FALSE(acquired.load()) << "writer entered past a live reader";
  release.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(acquired.load());
}

// A reader arriving while a writer holds the lock backs out of its slot,
// queues on the fallback, and proceeds once the writer leaves. Afterwards
// both sides still work: the fallback path leaves the slot balanced.
TEST(ShardLock, ReaderArrivingDuringWriterBlocksThenProceeds) {
  ShardLock lock;
  for (int round = 0; round < 3; ++round) {
    std::atomic<bool> entered{false};
    std::unique_lock writer(lock);
    std::thread reader([&] {
      std::shared_lock guard(lock);
      entered.store(true);
    });
    std::this_thread::sleep_for(kGrace);
    EXPECT_FALSE(entered.load()) << "reader entered under a writer";
    writer.unlock();
    reader.join();
    EXPECT_TRUE(entered.load());
  }
  { std::shared_lock guard(lock); }
  std::unique_lock again(lock);  // Would hang if a slot count leaked.
}

// 40 threads on 16 slots: up to three threads per slot. All of them hold
// the shared side at once, a writer must wait for every one, and after a
// mixed storm the slots are back at zero (a final lock() returns).
TEST(ShardLock, FortyThreadsShareSixteenSlotsWithoutLostCounts) {
  constexpr int kThreads = 40;
  static_assert(kThreads > static_cast<int>(ShardLock::kSlots));
  ShardLock lock;

  {
    std::latch all_in(kThreads);
    std::atomic<bool> release{false};
    std::atomic<bool> writer_in{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&] {
        std::shared_lock guard(lock);
        all_in.count_down();
        while (!release.load()) std::this_thread::yield();
        EXPECT_FALSE(writer_in.load());
      });
    }
    all_in.wait();
    std::thread writer([&] {
      std::unique_lock guard(lock);
      writer_in.store(true);
    });
    std::this_thread::sleep_for(kGrace);
    EXPECT_FALSE(writer_in.load()) << "writer entered past live readers";
    release.store(true);
    for (auto& t : readers) t.join();
    writer.join();
    EXPECT_TRUE(writer_in.load());
  }

  constexpr int kReadsPerThread = 2000;
  constexpr int kWrites = 200;
  uint64_t a = 0;
  uint64_t b = 0;
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        std::shared_lock guard(lock);
        if (a != b) torn.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }
  pool.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      std::unique_lock guard(lock);
      ++a;
      ++b;
    }
  });
  for (auto& t : pool) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(reads.load(), uint64_t{kThreads} * kReadsPerThread);
  std::unique_lock final_writer(lock);  // Would hang on a lost decrement.
  EXPECT_EQ(a, uint64_t{kWrites});
  EXPECT_EQ(b, a);
}

}  // namespace
}  // namespace bbf
