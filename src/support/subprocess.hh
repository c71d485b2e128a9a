/**
 * @file
 * POSIX subprocess plumbing for the process-isolated worker layer
 * (runner/worker.hh): a length-prefixed pipe framing protocol, child
 * resource limits, and small diagnostics helpers.
 *
 * Frame format: a 4-byte little-endian payload length followed by the
 * payload bytes.  The protocol is deliberately dumb -- one frame per
 * message, no multiplexing -- because the failure modes it must
 * survive are not protocol bugs but *process deaths*: a worker that
 * segfaults mid-write leaves a truncated frame, a corrupted worker
 * may emit garbage length bytes, and the reader must classify both as
 * structured errors (never hang, never throw) so the parent can turn
 * them into a WorkerCrashed outcome.
 */

#ifndef CSCHED_SUPPORT_SUBPROCESS_HH
#define CSCHED_SUPPORT_SUBPROCESS_HH

#include <cstdint>
#include <string>

#include "support/status.hh"

namespace csched {

/**
 * Refuse frames longer than this (64 MiB).  A length above the cap is
 * read as corruption -- a real reply (a JobResult, even with a large
 * assignment vector) is orders of magnitude smaller -- so garbage
 * length bytes fail fast instead of triggering a huge allocation.
 */
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/** How one readFrame() call ended. */
struct FrameResult
{
    enum class Kind {
        Payload,    ///< a complete frame was read
        Eof,        ///< clean end-of-stream before any length byte
        Timeout,    ///< the deadline passed before a frame began
        Malformed,  ///< truncated or stalled frame, or I/O error
        /**
         * The length prefix exceeds the caller's frame cap.  Kept
         * distinct from Malformed because the two call for different
         * reactions from a server reading *untrusted* peers: a
         * truncated frame usually means the peer died mid-write,
         * while an oversized length is either corruption or a hostile
         * client probing for a huge allocation -- the serve daemon
         * reports it with its own structured error before dropping
         * the connection (see serve/server.hh).
         */
        Oversized,
    };

    Kind kind = Kind::Eof;
    std::string payload;  ///< valid only for Kind::Payload
    /** Human-readable reason for Timeout/Malformed. */
    std::string error;

    bool ok() const { return kind == Kind::Payload; }
};

/**
 * Write one frame (length prefix + @p payload) to @p fd, retrying
 * short writes and EINTR.  Fails on I/O errors -- including EPIPE
 * when the peer died, which callers treat as a crashed worker.
 */
Status writeFrame(int fd, const std::string &payload);

/**
 * Read one frame from @p fd.  @p timeout_ms < 0 blocks indefinitely;
 * otherwise a frame must begin within the budget, or the call returns
 * Timeout having consumed nothing.  Bytes already buffered are read
 * even with a zero budget.  Once a frame's first byte has arrived, the
 * rest gets max(@p timeout_ms, 1 s), polled, so a peer that stops
 * mid-frame cannot hang the caller; such a stall is Malformed, never
 * Timeout.  Never throws; every failure mode comes back classified in
 * the FrameResult.
 */
FrameResult readFrame(int fd, int timeout_ms = -1,
                      uint32_t max_bytes = kMaxFrameBytes);

/**
 * Apply resource caps to the calling process (used in a freshly
 * forked worker child, before the first job runs): RLIMIT_AS capped
 * to @p mem_limit_mb megabytes and RLIMIT_CPU to @p cpu_limit_sec
 * seconds; zero leaves the respective limit untouched.  Failures are
 * ignored (a looser-than-requested child still runs correctly).
 */
void applyChildResourceLimits(int mem_limit_mb, int cpu_limit_sec);

/** The last @p n lines of @p text (for stderr-tail diagnostics). */
std::string lastLines(const std::string &text, int n);

} // namespace csched

#endif // CSCHED_SUPPORT_SUBPROCESS_HH
