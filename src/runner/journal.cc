#include "runner/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "support/fault_injection.hh"
#include "support/json.hh"
#include "support/str.hh"

namespace csched {

namespace {

Status
ioError(const std::string &what, const std::string &path)
{
    return Status::internal(what + " '" + path + "': " +
                            std::strerror(errno));
}

std::string
headerLine(const std::string &fingerprint)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("journal").value(std::string(kJournalSchema));
        w.key("grid").value(fingerprint);
        w.endObject();
    }
    return compactJson(out.str());
}

/** What a journal's header line says about resuming one grid. */
enum class HeaderVerdict
{
    /** No recognizable header: the file is started over. */
    Untrusted,
    /** Written for this grid: its records can be replayed. */
    SameGrid,
    /** Written for another grid: the resume is refused. */
    OtherGrid,
};

/**
 * Judge @p line, the journal's first line that parses as a JSON
 * object, against the grid identified by @p fingerprint.
 */
HeaderVerdict
judgeHeader(const JsonValue &line, const std::string &fingerprint)
{
    const JsonValue *schema = line.find("journal");
    const JsonValue *grid = line.find("grid");
    if (schema == nullptr || grid == nullptr ||
        schema->string != kJournalSchema)
        return HeaderVerdict::Untrusted;
    return grid->string == fingerprint ? HeaderVerdict::SameGrid
                                       : HeaderVerdict::OtherGrid;
}

Status
otherGridError(const std::string &path)
{
    return Status::invalidSpec("journal '" + path +
                               "' was written for a different grid; "
                               "refusing to resume (delete it to start "
                               "over)");
}

/** Parse @p line as a JSON object, or std::nullopt. */
std::optional<JsonValue>
parseObjectLine(const std::string &line)
{
    auto parsed = parseJson(line);
    if (!parsed.has_value() || parsed->kind != JsonValue::Kind::Object)
        return std::nullopt;
    return parsed;
}

} // namespace

std::string
gridFingerprint(const GridSpec &grid)
{
    std::vector<std::string> algorithms;
    for (const auto &spec : grid.algorithms)
        algorithms.push_back(spec.text());
    return join(grid.workloads, ",") + "|" +
           join(grid.machines, ",") + "|" + join(algorithms, ",") +
           "|speedup=" + (grid.computeSpeedup ? "1" : "0") +
           "|deadline=" + std::to_string(grid.deadlineMs) +
           "|retries=" + std::to_string(grid.retries);
}

std::string
journalRecordLine(const JobSpec &spec, const JobResult &result)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("key").value(jobKey(spec));
        w.key("result").beginObject();
        writeJobResultFields(w, result);
        w.endObject();
        w.endObject();
    }
    return compactJson(out.str());
}

JobJournal::JobJournal(int fd, std::string path)
    : fd_(fd), path_(std::move(path))
{
}

JobJournal::~JobJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

StatusOr<std::unique_ptr<JobJournal>>
JobJournal::open(const std::string &path,
                 const std::string &fingerprint, bool fresh,
                 bool rewrite_header)
{
    const bool truncate = fresh || rewrite_header;
    const int flags =
        O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0)
        return ioError("open journal", path);

    std::unique_ptr<JobJournal> journal(new JobJournal(fd, path));
    if (truncate) {
        const Status status =
            journal->writeLine(headerLine(fingerprint));
        if (!status.ok())
            return status;
    }
    return journal;
}

Status
JobJournal::writeLine(const std::string &line)
{
    // After a failed append the file may end mid-line; start on a
    // fresh line so the earlier artifact garbles only itself.
    const std::string record =
        (resync_ ? "\n" : "") + line + "\n";
    size_t written = 0;
    while (written < record.size()) {
        const ssize_t n = ::write(fd_, record.data() + written,
                                  record.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            resync_ = true;
            return ioError("append to journal", path_);
        }
        written += static_cast<size_t>(n);
    }
    resync_ = false;
    if (::fsync(fd_) != 0)
        return ioError("fsync journal", path_);
    return Status();
}

Status
JobJournal::append(const JobSpec &spec, const JobResult &result)
{
    const std::string line = journalRecordLine(spec, result);
    std::lock_guard<std::mutex> lock(mutex_);
    try {
        faultPoint("journal.append");
    } catch (const StatusError &error) {
        // Simulate the crash the fault models: leave a half-written
        // record (no newline, no fsync) and report the append failed.
        // The loader must skip exactly this artifact on resume.
        const std::string half = line.substr(0, line.size() / 2);
        const ssize_t ignored = ::write(fd_, half.data(), half.size());
        (void)ignored;
        resync_ = true;
        return error.status.withContext("journal append " +
                                        jobKey(spec));
    }
    return writeLine(line);
}

Status
checkJournalHeader(const std::string &path, const std::string &fingerprint)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (trim(line).empty())
            continue;
        const auto parsed = parseObjectLine(line);
        if (!parsed.has_value())
            continue;
        return judgeHeader(*parsed, fingerprint) == HeaderVerdict::OtherGrid
                   ? otherGridError(path)
                   : Status();
    }
    return Status();
}

StatusOr<JournalReplay>
loadJournal(const std::string &path, const std::string &fingerprint)
{
    JournalReplay replay;

    std::ifstream in(path);
    if (!in) {
        // Nothing journaled yet: resume of a run that died before its
        // first record (or was never started).
        replay.rewriteHeader = true;
        return replay;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string contents = buffer.str();

    bool saw_header = false;
    for (const auto &line : split(contents, '\n')) {
        if (trim(line).empty())
            continue;
        const auto parsed = parseObjectLine(line);
        if (!parsed.has_value()) {
            // A crash artifact (truncated or garbled record): the job
            // it described simply re-runs.
            ++replay.ignoredLines;
            continue;
        }
        if (!saw_header) {
            switch (judgeHeader(*parsed, fingerprint)) {
              case HeaderVerdict::Untrusted:
                // Start over rather than splice unknown records.
                replay.results.clear();
                replay.ignoredLines = 0;
                replay.rewriteHeader = true;
                return replay;
              case HeaderVerdict::OtherGrid:
                return otherGridError(path);
              case HeaderVerdict::SameGrid:
                break;
            }
            saw_header = true;
            continue;
        }
        const JsonValue *key = parsed->find("key");
        const JsonValue *result = parsed->find("result");
        if (key == nullptr || result == nullptr) {
            ++replay.ignoredLines;
            continue;
        }
        auto rebuilt = parseJobResultFields(*result);
        if (!rebuilt.has_value()) {
            ++replay.ignoredLines;
            continue;
        }
        replay.results[key->string] = std::move(*rebuilt);
    }
    replay.rewriteHeader = !saw_header;
    return replay;
}

} // namespace csched
