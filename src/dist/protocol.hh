/**
 * @file
 * Wire protocol between a grid client (dist/remote_pool.hh) and the
 * remote worker daemon (dist/workerd.hh): schema "csched-dist-v1",
 * compact JSON payloads over the same 4-byte LE length-prefixed frame
 * codec as the worker pipes and the serve daemon
 * (support/subprocess.hh readFrame/writeFrame).
 *
 * Six message types, all tagged with "type":
 *
 *  - hello    client -> server   opens a connection; version check
 *  - welcome  server -> client   accepts it, advertises job capacity
 *  - job      client -> server   one job dispatch, correlation id +
 *                                the exact text-form job crossing of
 *                                the isolated-worker frames
 *                                (runner/worker.hh
 *                                writeWorkerJobFields)
 *  - result   server -> client   the finished JobResult for one id
 *  - ping     client -> server   heartbeat probe, sequence number
 *  - pong     server -> client   heartbeat echo of that sequence
 *
 * The job payload reuses writeWorkerJobFields/decodeWorkerJobFields
 * verbatim, so *anything* a driver can express -- algorithm options,
 * fault plans, baseline memo entries -- round-trips to a remote host
 * exactly as it round-trips to a forked worker child.
 *
 * Robustness stance: decodeDistMessage() classifies every byte-level
 * failure (not JSON, wrong schema, missing fields, shape abuse from a
 * hostile peer) as an InvalidSpec status -- never a throw, never a
 * crash.  The frame cap is deliberately smaller than the pipe codec's
 * (remote peers are less trusted than our own forked children).
 */

#ifndef CSCHED_DIST_PROTOCOL_HH
#define CSCHED_DIST_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "runner/worker.hh"

namespace csched {

/** Schema identifier carried by every dist frame. */
inline const char *kDistSchema = "csched-dist-v1";

/**
 * Refuse dist frames longer than this (8 MiB).  A real job or result
 * frame -- even one carrying a large assignment vector -- is far
 * smaller; anything bigger is corruption or a hostile peer probing
 * for a huge allocation.
 */
inline constexpr uint32_t kDistMaxFrameBytes = 8u << 20;

/** One decoded dist frame. */
struct DistMessage
{
    enum class Kind { Hello, Welcome, Job, Result, Ping, Pong };

    Kind kind = Kind::Hello;
    /** Job correlation id (Job/Result). */
    uint64_t id = 0;
    /** Heartbeat sequence number (Ping/Pong). */
    uint64_t seq = 0;
    /** Advertised concurrent-job capacity (Welcome). */
    int capacity = 0;
    /** The dispatched job (Job). */
    std::optional<WorkerJobFrame> job;
    /** The finished result (Result). */
    std::optional<JobResult> result;
};

std::string encodeDistHello();
std::string encodeDistWelcome(int capacity);

/**
 * Encode one job dispatch: @p id plus the text-form job crossing (the
 * same field set encodeWorkerJob ships to a forked worker child, with
 * @p retries attempts remaining for the remote executor and no death
 * directive -- worker.* death points fire on the daemon's side).
 */
std::string encodeDistJob(uint64_t id, const JobSpec &spec,
                          const JobPolicy &policy, int retries,
                          const BaselineMemo *baselines);

std::string encodeDistResult(uint64_t id, const JobResult &result);
std::string encodeDistPing(uint64_t seq);
std::string encodeDistPong(uint64_t seq);

/**
 * Decode any dist frame.  Every way an untrusted peer can deviate
 * from the protocol -- non-JSON bytes, a wrong or missing schema, an
 * unknown type, missing or mis-shaped fields -- comes back as an
 * InvalidSpec status naming the problem.
 */
StatusOr<DistMessage> decodeDistMessage(const std::string &payload);

} // namespace csched

#endif // CSCHED_DIST_PROTOCOL_HH
