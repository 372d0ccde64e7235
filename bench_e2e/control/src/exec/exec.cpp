#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace isomap::exec {
namespace {

thread_local bool t_on_worker = false;

std::atomic<int> g_override{0};

int env_threads() {
  const char* env = std::getenv("ISOMAP_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v < 1) return 0;
  return static_cast<int>(std::min(v, 256L));
}

/// Fixed set of helper threads plus the caller: a region is one shared
/// chunk queue (an index cursor under the pool mutex) that the caller and
/// every helper drain together. One region runs at a time; regions are
/// short (a bench sweep point, a map build), so the coarse mutex around
/// chunk handout is never contended enough to matter.
class Pool {
 public:
  explicit Pool(int helpers) {
    threads_.reserve(static_cast<std::size_t>(helpers));
    for (int i = 0; i < helpers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           std::size_t chunk) {
    Job job;
    job.fn = &fn;
    job.n = n;
    job.chunk = std::max<std::size_t>(1, chunk);
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
    work_cv_.notify_all();
    const bool was_worker = t_on_worker;
    t_on_worker = true;  // The caller's share must not re-enter the pool.
    help(job, lock);
    t_on_worker = was_worker;
    done_cv_.wait(lock, [&] {
      return job.in_flight == 0 && (job.next >= job.n || job.error);
    });
    job_ = nullptr;
    lock.unlock();
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t next = 0;
    int in_flight = 0;
    std::exception_ptr error;
  };

  /// Drain chunks of the job until none remain; called with `lock` held,
  /// returns with it held. fn runs unlocked.
  void help(Job& job, std::unique_lock<std::mutex>& lock) {
    while (job.next < job.n && !job.error) {
      const std::size_t begin = job.next;
      const std::size_t end = std::min(job.n, begin + job.chunk);
      job.next = end;
      ++job.in_flight;
      lock.unlock();
      std::exception_ptr err;
      try {
        for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      --job.in_flight;
      if (err && !job.error) job.error = err;
    }
  }

  void worker_loop() {
    t_on_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] {
        return stop_ || (generation_ != seen && job_ != nullptr);
      });
      if (stop_) return;
      seen = generation_;
      Job& job = *job_;
      help(job, lock);
      if (job.in_flight == 0 && (job.next >= job.n || job.error))
        done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

std::mutex g_pool_mu;       // Guards pool (re)construction.
std::mutex g_region_mu;     // Serialises top-level regions.
std::unique_ptr<Pool> g_pool;
int g_pool_threads = 0;

Pool& pool_for(int threads) {
  const std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool_threads != threads) {
    g_pool.reset();  // Joins the old workers before spawning new ones.
    g_pool = std::make_unique<Pool>(threads - 1);
    g_pool_threads = threads;
  }
  return *g_pool;
}

}  // namespace

int thread_count() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  const int env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? static_cast<int>(std::min(hw, 16u)) : 1;
}

void set_thread_count(int n) {
  g_override.store(std::max(0, std::min(n, 256)), std::memory_order_relaxed);
}

bool on_worker_thread() { return t_on_worker; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const int threads = thread_count();
  if (threads <= 1 || n == 1 || t_on_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunk so each participant sees a few handouts (load balance) without
  // taking the mutex per index.
  const auto participants = static_cast<std::size_t>(threads);
  const std::size_t chunk = std::max<std::size_t>(1, n / (participants * 4));
  const std::lock_guard<std::mutex> region(g_region_mu);
  pool_for(threads).run(n, fn, chunk);
}

void parallel_for_blocks(
    const TileBlocks& blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  parallel_for(blocks.count(), [&](std::size_t b) {
    fn(b, blocks.begin(b), blocks.end(b));
  });
}

}  // namespace isomap::exec
