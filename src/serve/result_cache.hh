/**
 * @file
 * Memoized schedule results for the serve daemon: an LRU cache keyed
 * by the request's deterministic identity plus single-flight
 * deduplication of identical concurrent requests.
 *
 * Scheduling is deterministic -- the same (workload, machine,
 * algorithm, computeSpeedup) always produces the same result -- so a
 * served result can be replayed to later identical requests without
 * spending a worker.  The deadline is deliberately *not* part of the
 * key: it shapes how long we are willing to wait, not what the answer
 * is.
 *
 * Single-flight closes the thundering-herd window the cache alone
 * leaves open: when N identical requests arrive before the first one
 * finishes, exactly one dispatcher (the flight's *leader*) runs the
 * job while the other N-1 (the *followers*) block on the flight and
 * replay the leader's result -- whatever it is, success or failure, so
 * every follower still gets exactly one structured reply.  Only Ok
 * results enter the LRU; failures are presumed transient (a crashed
 * worker, a deadline) and the next request retries for real.
 */

#ifndef CSCHED_SERVE_RESULT_CACHE_HH
#define CSCHED_SERVE_RESULT_CACHE_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runner/job.hh"
#include "serve/protocol.hh"

namespace csched {

/** The deterministic cache identity of @p request (no deadline). */
std::string cacheKey(const ServeRequest &request);

/** One in-flight computation that followers can wait on. */
struct Flight
{
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
    JobResult result;
};

class ResultCache
{
  public:
    /** @p capacity 0 disables caching (every begin() is a leader). */
    explicit ResultCache(std::size_t capacity);

    /** How a begin() call resolved. */
    struct Ticket
    {
        /** Served from the LRU; @c result is valid, no job to run. */
        bool cached = false;
        /**
         * An identical request is already running; wait on @c flight
         * (waitFollower) instead of running the job again.
         */
        bool coalesced = false;
        JobResult result;  ///< valid only when cached
        /** The flight to wait on (follower) or to finish (leader). */
        std::shared_ptr<Flight> flight;

        bool leader() const { return !cached && !coalesced; }
    };

    /**
     * Resolve @p key: a cache hit, a follower ticket onto an existing
     * flight, or a leader ticket (a fresh flight was registered and
     * the caller must run the job and call finish() -- on *every*
     * path, or followers hang).
     */
    Ticket begin(const std::string &key);

    /**
     * Leader hand-off: record @p result, publish Ok results to the
     * LRU, wake every follower of @p flight, and retire the flight.
     */
    void finish(const std::string &key,
                const std::shared_ptr<Flight> &flight,
                const JobResult &result);

    /**
     * Follower wait: block until the leader finishes or @p deadline
     * passes.  Returns false on deadline expiry (the follower sheds
     * itself with a timeout reply; the leader is still running).
     */
    static bool
    waitFollower(const std::shared_ptr<Flight> &flight,
                 std::chrono::steady_clock::time_point deadline,
                 JobResult *out);

  private:
    void touch(const std::string &key);  // mutex_ held

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    /** Most-recently-used first. */
    std::list<std::string> order_;
    std::map<std::string,
             std::pair<JobResult, std::list<std::string>::iterator>>
        entries_;
    std::map<std::string, std::shared_ptr<Flight>> flights_;
};

} // namespace csched

#endif // CSCHED_SERVE_RESULT_CACHE_HH
