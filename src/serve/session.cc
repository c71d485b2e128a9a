#include "serve/session.hh"

#include <unistd.h>

#include "support/socket.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

std::string
connectionScopeKey(uint64_t id)
{
    return "serve/conn-" + std::to_string(id);
}

} // namespace

Session::Session(int fd, uint64_t id, int send_timeout_ms,
                 const FaultPlan *faults)
    : fd_(fd), admitScope_(faults, connectionScopeKey(id)),
      replyScope_(faults, connectionScopeKey(id))
{
    setSendTimeout(fd_, send_timeout_ms);
}

Session::~Session()
{
    ::close(fd_);
}

Status
Session::send(const ServeResponse &response, bool timings)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    ServeResponse outgoing = response;
    try {
        replyScope_.hit("serve.reply");
    } catch (const StatusError &err) {
        // Rewrite, never drop: the client still gets exactly one
        // structured reply for this id, now carrying the injected
        // failure.
        outgoing.status = errorCodeName(err.status.code());
        outgoing.result.outcome = JobOutcome::Failed;
        outgoing.result.error = err.status.code();
        outgoing.result.diagnostic =
            "reply fault injected: " + err.status.message();
    }
    return writeFrame(fd_, encodeServeResponse(outgoing, timings));
}

} // namespace csched
