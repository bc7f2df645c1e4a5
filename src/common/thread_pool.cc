#include "src/common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/common/check.h"

namespace macaron {

ForkJoin::ForkJoin(ForkJoin&& o) noexcept
    : pool_(o.pool_), state_(std::exchange(o.state_, nullptr)) {}

ForkJoin& ForkJoin::operator=(ForkJoin&& o) noexcept {
  MACARON_CHECK(state_ == nullptr);
  pool_ = o.pool_;
  state_ = std::exchange(o.state_, nullptr);
  return *this;
}

ForkJoin::~ForkJoin() {
  try {
    Join();
  } catch (...) {
    // While another exception unwinds, that one reports the failure.
    if (std::uncaught_exceptions() == 0) {
      std::terminate();
    }
  }
}

void ForkJoin::Join() {
  if (state_ != nullptr) {
    pool_->Finish(*std::exchange(state_, nullptr));
  }
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 1) {
    return;  // workerless: callers run inline
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MACARON_CHECK(forks_.empty());
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !forks_.empty() || !queue_.empty(); });
    if (!forks_.empty()) {
      // Entering under the mutex pins the state: Finish recycles it only
      // once it is unlisted and no worker is inside.
      internal::ForkState& f = *forks_.front();
      ++f.inside;
      // Wakes propagate: a worker that finds more than one index left wakes
      // the next helper. A fork the caller finishes alone wakes one worker.
      const bool wake_next = f.wakes_left > 0 && f.next.load(std::memory_order_relaxed) + 1 < f.n;
      f.wakes_left -= wake_next ? 1 : 0;
      lock.unlock();
      if (wake_next) {
        cv_.notify_one();
      }
      RunIndices(f);
      lock.lock();
      Unlist(f);  // its cursor is exhausted
      if (--f.inside == 0 && f.waiting) {
        f.drained.notify_one();
      }
      continue;
    }
    if (queue_.empty()) {
      return;  // stop requested and nothing left to drain
    }
    std::packaged_task<void()> task = std::move(queue_.front());
    queue_.pop();
    lock.unlock();
    task();
    lock.lock();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (workers_.empty()) {
    packaged();  // inline; the future still carries any exception
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

internal::ForkState* ThreadPool::Start(size_t n, void (*copy)(void*, const void*),
                                       void (*invoke)(const void*, size_t), const void* fn) {
  internal::ForkState* f = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      states_.push_back(std::make_unique<internal::ForkState>());
      free_.push_back(states_.back().get());
    }
    f = free_.back();
    free_.pop_back();
    copy(f->fn, fn);
    f->invoke = invoke;
    f->n = n;
    f->next.store(0, std::memory_order_relaxed);
    // The joining thread is one participant, so n - 1 workers suffice. Only
    // the first is woken here; each woken worker wakes the next while work
    // remains (WorkerLoop).
    f->wakes_left = std::min(n - 1, workers_.size()) - 1;
    f->listed = true;
    forks_.push_back(f);
  }
  cv_.notify_one();
  return f;
}

void ThreadPool::RunIndices(internal::ForkState& f) {
  for (size_t i = f.next.fetch_add(1, std::memory_order_relaxed); i < f.n;
       i = f.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      f.invoke(f.fn, i);
    } catch (...) {
      if (!f.failed.exchange(true)) {
        f.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::Finish(internal::ForkState& f) {
  RunIndices(f);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Unlist(f);
    while (f.inside > 0) {
      f.waiting = true;
      f.drained.wait(lock);
    }
    f.waiting = false;
    error = std::exchange(f.error, nullptr);
    f.failed.store(false, std::memory_order_relaxed);
    free_.push_back(&f);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::Unlist(internal::ForkState& f) {
  if (f.listed) {
    forks_.erase(std::find(forks_.begin(), forks_.end(), &f));
    f.listed = false;
  }
}

}  // namespace macaron
