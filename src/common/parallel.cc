#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace deepcsi::common {
namespace {

// Set while a pool worker (or a caller participating in a job) runs chunk
// bodies; nested parallel_for calls detect it and degrade to serial.
thread_local bool t_in_parallel_region = false;

int threads_from_env() {
  if (const char* s = std::getenv("DEEPCSI_THREADS")) {
    const int v = std::atoi(s);
    if (v >= 1) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

// Restores the region flag even when a serially-executed chunk throws
// (pooled chunks are caught in work_on; serial ones propagate).
class RegionGuard {
 public:
  RegionGuard() { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = false; }
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool* pool = new ThreadPool();  // leaked: workers may
    return *pool;  // outlive static destruction order otherwise
  }

  int num_threads() {
    std::lock_guard<std::mutex> lk(mutex_);
    return target_threads_;
  }

  void set_num_threads(int n) {
    DEEPCSI_CHECK(n >= 1);
    DEEPCSI_CHECK_MSG(!t_in_parallel_region,
                      "set_num_threads inside a parallel region");
    std::unique_lock<std::mutex> lk(mutex_);
    DEEPCSI_CHECK_MSG(job_ == nullptr, "set_num_threads while a job runs");
    if (n == target_threads_) return;
    stop_workers(lk);
    target_threads_ = n;
  }

  // One top-level parallel job: chunk i covers indices
  // [begin + i*grain, min(begin + (i+1)*grain, end)). The body is a
  // borrowed (ctx, thunk) pair — never copied, never heap-allocated.
  void run(std::size_t begin, std::size_t end, std::size_t grain, void* ctx,
           detail::ChunkBody body) {
    const std::size_t num_chunks = (end - begin + grain - 1) / grain;
    if (num_chunks == 0) return;
    if (t_in_parallel_region) {  // nested: serial, same chunk order
      for (std::size_t lo = begin; lo < end; lo += grain)
        body(ctx, lo, lo + grain < end ? lo + grain : end);
      return;
    }

    Job job;
    job.ctx = ctx;
    job.body = body;
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.num_chunks = num_chunks;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      // One pooled job at a time — but a caller that finds the pool busy
      // does NOT wait behind it: it runs its own chunks serially instead.
      // Inference fans out by sample (InferenceContext::run makes one job
      // per batch, its chunks claiming samples), so a serving lane that
      // finds the pool busy runs its whole batch serially on its own
      // thread. Concurrent top-level callers therefore never serialize
      // on each other; they share cores through the OS. The chunk
      // boundaries and per-chunk order are identical either way, so
      // results stay bit-identical by the determinism contract.
      // (start_workers may drop the lock while resizing, so job_ is
      // re-checked after it returns.)
      if (job_ == nullptr) start_workers(lk);
      if (job_ != nullptr || workers_.empty() || num_chunks == 1) {
        lk.unlock();
        RegionGuard guard;
        for (std::size_t lo = begin; lo < end; lo += grain)
          body(ctx, lo, lo + grain < end ? lo + grain : end);
        return;
      }
      job_ = &job;
    }
    work_cv_.notify_all();

    {
      RegionGuard guard;
      work_on(job);
    }

    {
      std::unique_lock<std::mutex> lk(mutex_);
      done_cv_.wait(lk, [&] {
        return job.done == job.num_chunks && job.active_workers == 0;
      });
      job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  struct Job {
    void* ctx = nullptr;
    detail::ChunkBody body = nullptr;
    std::size_t begin = 0, end = 0, grain = 1;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    // Guarded by mutex_:
    std::size_t done = 0;
    int active_workers = 0;
    std::exception_ptr error;
  };

  ThreadPool() : target_threads_(threads_from_env()) {}

  // Claims chunks until the job is drained. Chunk *assignment* to threads
  // is racy by design; chunk *boundaries* and per-chunk iteration order
  // are fixed, which is what the determinism contract needs.
  void work_on(Job& job) {
    while (true) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.num_chunks) return;
      std::exception_ptr err;
      try {
        const std::size_t lo = job.begin + i * job.grain;
        const std::size_t hi =
            lo + job.grain < job.end ? lo + job.grain : job.end;
        job.body(job.ctx, lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mutex_);
      if (err && !job.error) job.error = err;
      if (++job.done == job.num_chunks) done_cv_.notify_all();
    }
  }

  // Each worker batch owns its stop token: a resize can swap the batch
  // out under the lock and join it unlocked while a concurrent caller
  // spawns a fresh batch, without the old workers ever seeing (or
  // clearing) the new batch's state.
  void worker_loop(std::shared_ptr<std::atomic<bool>> stop) {
    t_in_parallel_region = true;
    std::unique_lock<std::mutex> lk(mutex_);
    while (true) {
      work_cv_.wait(lk, [&] {
        return stop->load() ||
               (job_ != nullptr && job_->next.load() < job_->num_chunks);
      });
      if (stop->load()) return;
      Job& job = *job_;
      ++job.active_workers;
      lk.unlock();
      work_on(job);
      lk.lock();
      if (--job.active_workers == 0 && job.done == job.num_chunks)
        done_cv_.notify_all();
    }
  }

  void start_workers(std::unique_lock<std::mutex>& lk) {
    DEEPCSI_CHECK(lk.owns_lock());
    if (static_cast<int>(workers_.size()) == target_threads_ - 1) return;
    stop_workers(lk);
    stop_token_ = std::make_shared<std::atomic<bool>>(false);
    for (int i = 0; i < target_threads_ - 1; ++i)
      workers_.emplace_back(
          [this, stop = stop_token_] { worker_loop(std::move(stop)); });
  }

  void stop_workers(std::unique_lock<std::mutex>& lk) {
    if (workers_.empty()) return;
    // Detach the batch under the lock: a concurrent caller sees an empty
    // workers_ and cannot double-join these threads.
    std::vector<std::thread> joining;
    joining.swap(workers_);
    stop_token_->store(true);
    lk.unlock();
    work_cv_.notify_all();
    for (std::thread& t : joining) t.join();
    lk.lock();
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<std::atomic<bool>> stop_token_ =
      std::make_shared<std::atomic<bool>>(false);
  Job* job_ = nullptr;
  int target_threads_ = 1;
};

}  // namespace

int num_threads() { return ThreadPool::instance().num_threads(); }

void set_num_threads(int n) { ThreadPool::instance().set_num_threads(n); }

namespace detail {

void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       void* ctx, ChunkBody body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  ThreadPool::instance().run(begin, end, grain, ctx, body);
}

}  // namespace detail

std::size_t grain_for(std::size_t work_per_index, std::size_t target_work) {
  if (work_per_index == 0) work_per_index = 1;
  const std::size_t g = target_work / work_per_index;
  return g == 0 ? 1 : g;
}

}  // namespace deepcsi::common
