#ifndef BBF_CORE_SHARD_LOCK_H_
#define BBF_CORE_SHARD_LOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace bbf {

/// The reader-writer lock guarding one ShardedFilter shard (DESIGN.md §9,
/// "Locking discipline"). Readers write only their own cache line, so
/// lookups on different cores never contend on the lock itself — the
/// per-thread reader-slot idea of BRAVO (Dice & Kogan, USENIX ATC 2019),
/// with a fixed slot array per lock instead of a global table.
///
///   lock_shared: bump this thread's slot (seq_cst), then load `writer_`
///     (seq_cst). No writer: done. Otherwise undo the bump, queue behind
///     the writer on `fallback_`, and re-register while holding it.
///   lock: take `fallback_`, raise `writer_` (seq_cst), then wait until
///     every slot reads zero.
///
/// The reader's bump-then-load and the writer's store-then-scan are a
/// Dekker pair: each side stores, then loads what the other side stored.
/// Only seq_cst forbids both loads from missing both stores (StoreLoad
/// reordering); with acquire/release a reader and a writer could both
/// enter. Threads take slots from a global counter mod kSlots, so past
/// kSlots threads a slot is shared; its count stays exact because every
/// update is an atomic add or subtract.
///
/// Has the four members std::shared_lock and std::unique_lock call. Not
/// recursive: a thread holding the shared side must not take it again,
/// since a writer raised in between would block the second call.
class ShardLock {
 public:
  static constexpr size_t kSlots = 16;

  void lock_shared() {
    std::atomic<uint32_t>& readers = slots_[ThreadSlot()].readers;
    readers.fetch_add(1, std::memory_order_seq_cst);
    if (!writer_.load(std::memory_order_seq_cst)) return;
    readers.fetch_sub(1, std::memory_order_release);
    // A writer holds the fallback until it has cleared writer_, so while
    // we hold it no writer is in. The next writer must take the fallback
    // after we release it, which orders our re-registration before its
    // slot scan. Readers hold it only for that one add, so a plain mutex
    // serves: it is cheaper than a shared_mutex for writers to take and
    // release, and writers take it on every exclusive acquisition.
    std::lock_guard<std::mutex> wait(fallback_);
    readers.fetch_add(1, std::memory_order_relaxed);
  }

  void unlock_shared() {
    slots_[ThreadSlot()].readers.fetch_sub(1, std::memory_order_release);
  }

  void lock() {
    fallback_.lock();
    writer_.store(true, std::memory_order_seq_cst);
    // With no reader in, the common case, one branch-free pass of
    // independent loads settles it; only then wait slot by slot.
    uint32_t in = 0;
    for (const Slot& slot : slots_) {
      in |= slot.readers.load(std::memory_order_seq_cst);
    }
    if (in == 0) return;
    for (const Slot& slot : slots_) {
      for (uint32_t spins = 0;
           slot.readers.load(std::memory_order_seq_cst) != 0; ++spins) {
        Relax(spins);
      }
    }
  }

  void unlock() {
    writer_.store(false, std::memory_order_release);
    fallback_.unlock();
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint32_t> readers{0};
  };

  // This thread's slot, fixed for the thread's lifetime and shared by
  // every ShardLock.
  static size_t ThreadSlot() {
    static std::atomic<size_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return slot;
  }

  // Spin-wait step: pause, and after a while yield, so a writer waiting
  // on a descheduled reader does not burn the reader's CPU.
  static void Relax(uint32_t spins) {
    if (spins < 1024) {
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
    } else {
      std::this_thread::yield();
    }
  }

  Slot slots_[kSlots];
  alignas(64) std::atomic<bool> writer_{false};
  alignas(64) std::mutex fallback_;
};

}  // namespace bbf

#endif  // BBF_CORE_SHARD_LOCK_H_
