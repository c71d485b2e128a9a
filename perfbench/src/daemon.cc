#include "daemon.hh"

#include <csignal>
#include <stdexcept>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

Daemon::Daemon(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const auto &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);

    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed for " + argv.at(0));
    if (pid_ == 0) {
        // Die with the benchmark, and keep the daemon's chatter off
        // stdout, whose last line is the benchmark's result.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        dup2(STDERR_FILENO, STDOUT_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
}

Daemon::~Daemon() { stop(); }

bool
Daemon::alive()
{
    if (pid_ <= 0)
        return false;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
    }
    return true;
}

void
Daemon::stop()
{
    if (!alive())
        return;
    kill(pid_, SIGTERM);
    if (!waitUntil([this] { return !alive(); }, 5000)) {
        kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }
}

} // namespace perfbench
