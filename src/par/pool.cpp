#include "par/pool.hpp"

#include <algorithm>

namespace appstore::par {

namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

std::size_t resolve_threads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool in_pool_worker() noexcept { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t participants = resolve_threads(threads);
  workers_.reserve(participants - 1);
  for (std::size_t i = 0; i + 1 < participants; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::drain(const std::shared_ptr<Job>& job) {
  for (;;) {
    const std::size_t shard = job->next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job->shard_count) break;
    try {
      (*job->fn)(shard);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!job->error) job->error = std::current_exception();
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == job->shard_count) {
      // Last shard: wake the caller. The lock orders the notify against the
      // caller's predicate check.
      const std::lock_guard<std::mutex> lock(mutex_);
      job->done_cv.notify_one();
    }
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::adoptable_job() const {
  for (const auto& job : jobs_) {
    if (job->next.load(std::memory_order_relaxed) >= job->shard_count) continue;
    if (job->max_participants != 0 && job->adopters >= job->max_participants) continue;
    return job;
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // A job whose tickets ran out is never adoptable again, so a worker
      // returning from drain() cannot re-adopt the job it just finished.
      work_cv_.wait(lock, [&] {
        if (stopping_) return true;
        job = adoptable_job();
        return job != nullptr;
      });
      if (stopping_) return;
      ++job->adopters;  // job stays alive past its caller's return
    }
    drain(job);
  }
}

void ThreadPool::for_shards(std::size_t shard_count,
                            const std::function<void(std::size_t)>& fn,
                            std::size_t max_participants) {
  if (shard_count == 0) return;
  // Inline paths: single shard, no workers, capped to one participant, or a
  // nested call from inside a worker (enqueueing from a worker and blocking
  // on the result could deadlock a fully-busy pool).
  if (shard_count == 1 || workers_.empty() || max_participants == 1 || in_pool_worker()) {
    for (std::size_t shard = 0; shard < shard_count; ++shard) fn(shard);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->shard_count = shard_count;
  job->max_participants = max_participants;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->adopters = 1;  // the caller
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  drain(job);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    job->done_cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->shard_count;
    });
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
    if (job->error) {
      std::exception_ptr error = job->error;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

std::size_t ThreadPool::queued_shards() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t queued = 0;
  for (const auto& job : jobs_) {
    const std::size_t next = job->next.load(std::memory_order_relaxed);
    if (next < job->shard_count) queued += job->shard_count - next;
  }
  return queued;
}

ThreadPool& global_pool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace appstore::par
