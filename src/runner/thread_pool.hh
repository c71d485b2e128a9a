/**
 * @file
 * A fixed-size thread pool: the experiment grid's job slots, the
 * serve daemon's dispatchers and the worker daemon's job runners.
 * Deliberately minimal: submit void() tasks, wait for quiescence
 * (bounded or not), destruction runs what is queued and joins the
 * workers.  Determinism of results is the *caller's* job -- the pool
 * makes no ordering promises, so callers must write into pre-assigned
 * slots rather than share mutable state (see grid_runner.cc).
 */

#ifndef CSCHED_RUNNER_THREAD_POOL_HH
#define CSCHED_RUNNER_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csched {

/** Fixed-size pool of worker threads draining one task queue. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers.  num_threads == 0 asks for
     * defaultConcurrency().  A single-threaded pool still runs tasks
     * on its one worker, so the execution path is identical for
     * --jobs 1 and --jobs N.
     */
    explicit ThreadPool(int num_threads);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and every worker is idle. */
    void wait();

    /**
     * wait() for at most @p timeout; true if the pool went idle.
     * waitFor(0ms) asks whether it is idle now.
     */
    bool waitFor(std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return allIdle_.wait_for(lock, timeout, [this] {
            return queue_.empty() && active_ == 0;
        });
    }

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** hardware_concurrency with a sane floor of 1. */
    static int defaultConcurrency();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int active_ = 0;
    bool stopping_ = false;
};

} // namespace csched

#endif // CSCHED_RUNNER_THREAD_POOL_HH
