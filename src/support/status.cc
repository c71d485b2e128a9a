#include "support/status.hh"

namespace csched {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return "ok";
      case ErrorCode::InvalidSpec:
        return "invalid-spec";
      case ErrorCode::CheckFailed:
        return "check-failed";
      case ErrorCode::Timeout:
        return "timeout";
      case ErrorCode::Injected:
        return "injected";
      case ErrorCode::Internal:
        return "internal";
      case ErrorCode::Interrupted:
        return "interrupted";
      case ErrorCode::WorkerCrashed:
        return "worker-crashed";
      case ErrorCode::WorkerKilled:
        return "worker-killed";
      case ErrorCode::Overloaded:
        return "overloaded";
      case ErrorCode::HostLost:
        return "host-lost";
    }
    CSCHED_PANIC("unreachable error code ", static_cast<int>(code));
}

std::optional<ErrorCode>
parseErrorCodeName(const std::string &name)
{
    for (const ErrorCode candidate :
         {ErrorCode::InvalidSpec, ErrorCode::CheckFailed,
          ErrorCode::Timeout, ErrorCode::Injected, ErrorCode::Internal,
          ErrorCode::Interrupted, ErrorCode::WorkerCrashed,
          ErrorCode::WorkerKilled, ErrorCode::Overloaded,
          ErrorCode::HostLost}) {
        if (name == errorCodeName(candidate))
            return candidate;
    }
    return std::nullopt;
}

Status
Status::error(ErrorCode code, std::string message)
{
    CSCHED_ASSERT(code != ErrorCode::Ok,
                  "Status::error needs a non-Ok code");
    return Status(code, std::move(message));
}

Status
Status::invalidSpec(std::string message)
{
    return error(ErrorCode::InvalidSpec, std::move(message));
}

Status
Status::checkFailed(std::string message)
{
    return error(ErrorCode::CheckFailed, std::move(message));
}

Status
Status::timedOut(std::string message)
{
    return error(ErrorCode::Timeout, std::move(message));
}

Status
Status::internal(std::string message)
{
    return error(ErrorCode::Internal, std::move(message));
}

Status
Status::interrupted(std::string message)
{
    return error(ErrorCode::Interrupted, std::move(message));
}

Status
Status::workerCrashed(std::string message)
{
    return error(ErrorCode::WorkerCrashed, std::move(message));
}

Status
Status::overloaded(std::string message)
{
    return error(ErrorCode::Overloaded, std::move(message));
}

Status
Status::hostLost(std::string message)
{
    return error(ErrorCode::HostLost, std::move(message));
}

Status
Status::withContext(const std::string &context) const
{
    if (ok())
        return *this;
    return Status(code_, context + ": " + message_);
}

std::string
Status::toString() const
{
    if (ok())
        return "ok";
    return std::string(errorCodeName(code_)) + ": " + message_;
}

} // namespace csched
