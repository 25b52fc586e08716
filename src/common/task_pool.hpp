// A fixed pool of worker threads over independent, indexed tasks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sfab {

/// Runs `count` indexed tasks on min(workers, count) threads, or on the
/// calling thread when that is one or fewer. Each thread calls
/// `worker(claim)` once, where `claim(index)` sets `index` to the next
/// unclaimed task in ascending order and returns false when none is left
/// or a task has thrown, so per-thread state lives in the worker's own
/// frame. After every thread has joined, the first exception any worker
/// threw is rethrown. Which thread runs which task is unspecified: tasks
/// that write only their own result slots give the same results at any
/// worker count.
template <class Worker>
void run_task_pool(std::size_t count, unsigned workers, Worker&& worker) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto claim = [&](std::size_t& index) {
    if (failed.load(std::memory_order_relaxed)) return false;
    index = cursor.fetch_add(1, std::memory_order_relaxed);
    return index < count;
  };
  const auto body = [&] {
    try {
      worker(claim);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  const std::size_t threads = std::min<std::size_t>(workers, count);
  if (threads <= 1) {
    body();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(body);
    for (std::thread& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sfab
