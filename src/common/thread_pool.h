// Fixed-size thread pool for fanning independent work across cores.
//
// Two kinds of work share the workers:
//   * Fork-join fan-outs (Fork / ParallelFor): fn(i) for every i in [0, n).
//     Indices are claimed one at a time through the fork's atomic cursor, by
//     the workers Fork woke and, at Join, by the joining thread itself — so
//     the caller works through the fork's unclaimed indices instead of
//     sleeping, and only waits for indices a worker already claimed. A fork
//     costs no allocation once the pool has warmed up (its state is recycled)
//     and wakes at most min(n - 1, workers) workers, one at a time: Fork
//     wakes one, and each woken worker that still finds work left wakes the
//     next, so a fork the caller finishes alone costs a single wake-up. A
//     joining thread only ever runs its own fork's indices, never another
//     fork's.
//   * Submitted tasks (Submit): one std::function each, resolved through a
//     future; the sweep scheduler and the decode-ahead cursor use these.
// Workers prefer forks over queued tasks. Which thread runs index i is
// unspecified, so fn(i) must only touch state that index owns. With zero
// workers (threads <= 1 at construction) everything runs inline on the
// calling thread, so a ThreadPool(1) behaves bit-identically to no pool.

#ifndef MACARON_SRC_COMMON_THREAD_POOL_H_
#define MACARON_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace macaron {

class ThreadPool;

namespace internal {

// One fan-out's shared state, owned and recycled by its pool.
struct ForkState {
  // The callable lives inline (trivially copyable, so it needs no
  // destructor, and at most this size), so starting a fork never allocates.
  static constexpr size_t kInlineBytes = 32;
  alignas(std::max_align_t) unsigned char fn[kInlineBytes];
  void (*invoke)(const void* fn, size_t i) = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};  // claim cursor; >= n once every index is claimed
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // the first exception any index threw
  // Guarded by the pool mutex.
  int inside = 0;          // workers currently claiming from this fork
  size_t wakes_left = 0;   // further workers this fork may wake
  bool listed = false;     // still in the pool's list of claimable forks
  bool waiting = false;    // the joining thread sleeps on `drained`
  std::condition_variable drained;
};

}  // namespace internal

// Handle to one outstanding fork (see ThreadPool::Fork). A default-built or
// joined handle is idle. Destroying an outstanding handle joins it, so a
// fork never outlives the state its body uses; an exception from that
// fork ends the program unless another exception is already unwinding.
class ForkJoin {
 public:
  ForkJoin() = default;
  ForkJoin(ForkJoin&& o) noexcept;
  // Only an idle handle may be assigned to.
  ForkJoin& operator=(ForkJoin&& o) noexcept;
  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;
  ~ForkJoin();

  // Runs the fork's unclaimed indices on this thread, waits for the ones
  // workers claimed, then rethrows the first exception any index threw.
  // Every claimed index has finished before Join returns or throws. No-op
  // on an idle handle; the handle is idle afterwards.
  void Join();

 private:
  friend class ThreadPool;
  ForkJoin(ThreadPool* pool, internal::ForkState* state) : pool_(pool), state_(state) {}

  ThreadPool* pool_ = nullptr;
  internal::ForkState* state_ = nullptr;
};

class ThreadPool {
 public:
  // threads <= 1 creates a workerless pool: Submit, Fork and ParallelFor
  // run everything inline on the caller.
  explicit ThreadPool(int threads);
  // Every fork must have been joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Detected hardware thread count, never less than 1 (the sweep scheduler
  // and bench drivers use this as their default pool size).
  static int HardwareConcurrency();

  // Enqueues one task; the future resolves when it completes and rethrows
  // anything the task threw.
  std::future<void> Submit(std::function<void()> task);

  // Starts fn(i) for every i in [0, n) and returns without waiting; the
  // returned handle's Join completes the fork. `fn` is copied into the
  // fork, so it must be trivially copyable and small (a lambda capturing a
  // few pointers). With no workers, or n <= 1, the indices run inline
  // before Fork returns (exceptions propagate from Fork) and the handle is
  // idle.
  template <typename F>
  ForkJoin Fork(size_t n, F fn) {
    static_assert(std::is_trivially_copyable_v<F> &&
                      sizeof(F) <= internal::ForkState::kInlineBytes &&
                      alignof(F) <= alignof(std::max_align_t),
                  "Fork stores its callable inline: capture a few pointers at most");
    if (workers_.empty() || n <= 1) {
      for (size_t i = 0; i < n; ++i) {
        fn(i);
      }
      return ForkJoin();
    }
    auto copy = [](void* dst, const void* src) { new (dst) F(*static_cast<const F*>(src)); };
    auto invoke = [](const void* p, size_t i) { (*static_cast<const F*>(p))(i); };
    return ForkJoin(this, Start(n, copy, invoke, &fn));
  }

  // Runs fn(i) for every i in [0, n) and blocks until all complete: Fork
  // plus Join. The first exception (if any) is rethrown on the caller.
  template <typename F>
  void ParallelFor(size_t n, F&& fn) {
    // The fork copies this reference wrapper, not fn; Join returns only
    // after every index finished, so fn outlives them all.
    Fork(n, [&fn](size_t i) { fn(i); }).Join();
  }

 private:
  friend class ForkJoin;

  // Publishes a fork (recycling a state when one is free) and wakes its
  // first worker.
  internal::ForkState* Start(size_t n, void (*copy)(void*, const void*),
                             void (*invoke)(const void*, size_t), const void* fn);
  // Claims and runs indices of `f` until its cursor is exhausted.
  static void RunIndices(internal::ForkState& f);
  // ForkJoin::Join's body: claim, wait for workers, recycle, rethrow.
  void Finish(internal::ForkState& f);
  void Unlist(internal::ForkState& f);  // requires mu_
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::vector<internal::ForkState*> forks_;  // claimable forks, oldest first
  std::vector<std::unique_ptr<internal::ForkState>> states_;  // every state ever made
  std::vector<internal::ForkState*> free_;   // states ready for reuse
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_THREAD_POOL_H_
