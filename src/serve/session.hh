/**
 * @file
 * One accepted client connection of the serve daemon.
 *
 * A session is shared between its reader thread (which decodes
 * requests and replies to admission rejections inline) and any number
 * of dispatcher threads (which reply with results later), so replies
 * are serialized by a per-session write mutex and the session itself
 * lives in a shared_ptr: a queued request keeps its session alive, and
 * the reply still flushes even after the reader exited on client EOF.
 *
 * The "serve.reply" fault point fires inside send(), under the write
 * mutex, in the session's own fault scope (key "serve/conn-<id>").  A
 * Fail rule does NOT drop the reply -- dropping would break the
 * exactly-one-reply contract the load harness proves -- it *replaces*
 * the payload with a structured injected-error response carrying the
 * same request id, modelling a server that answered "something went
 * wrong here" rather than one that went silent.  Slow rules simply
 * delay the write, exercising the slow-reply path (and the peer's
 * patience) without changing the payload.
 */

#ifndef CSCHED_SERVE_SESSION_HH
#define CSCHED_SERVE_SESSION_HH

#include <cstdint>
#include <mutex>

#include "serve/protocol.hh"
#include "support/fault_injection.hh"
#include "support/status.hh"

namespace csched {

class Session
{
  public:
    /**
     * Take ownership of connected @p fd.  @p send_timeout_ms bounds
     * each reply write (SO_SNDTIMEO) so a client that stopped reading
     * cannot park a dispatcher forever.  @p faults (borrowed, may be
     * null) arms the serve.admit / serve.reply points for this
     * connection.
     */
    Session(int fd, uint64_t id, int send_timeout_ms,
            const FaultPlan *faults);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    int fd() const { return fd_; }

    /**
     * Send exactly one reply frame for @p response (possibly rewritten
     * by a serve.reply Fail rule -- see the file comment).  Thread-safe.
     * A failed write (dead or stuck peer) is returned, not retried:
     * the reply was produced and the transport refused it, which the
     * server records but cannot fix.
     */
    Status send(const ServeResponse &response, bool timings = true);

    /**
     * The reader thread's fault scope for the "serve.admit" point.
     * Only the reader may touch it (FaultScope is not thread-safe).
     */
    FaultScope &admitScope() { return admitScope_; }

  private:
    const int fd_;
    std::mutex writeMutex_;
    FaultScope admitScope_;
    FaultScope replyScope_;  ///< guarded by writeMutex_
};

} // namespace csched

#endif // CSCHED_SERVE_SESSION_HH
