/**
 * @file
 * The durable half of the grid runner: a per-run append-only JSONL
 * journal that records every job's terminal outcome the moment it
 * completes, so a killed run (crash, OOM, SIGINT/SIGTERM) can be
 * resumed without repeating finished work.
 *
 * File format (one JSON document per line):
 *
 *   {"journal": "csched-journal-v1", "grid": "<fingerprint>"}
 *   {"key": "fir/vliw4/uas", "result": { ...full JobResult... }}
 *   ...
 *
 * The header pins the schema version and the grid fingerprint (axes +
 * policy); resuming against a journal written for a different grid is
 * an error, not a silent mismatch.  Records are keyed by the job's
 * deterministic identity (jobKey) and carry every deterministic field
 * of the JobResult plus its wall-clock observability, so a replayed
 * slot serializes byte-identically to the original run.  Readers
 * ignore unknown record fields; adding fields bumps nothing, changing
 * meaning bumps the version string.
 *
 * Crash tolerance: each record is staged as one complete line and
 * appended with a single write() followed by fsync().  A crash mid-
 * append leaves at most one truncated/garbled trailing line, which the
 * loader ignores (that job simply re-runs on resume).  Only terminal
 * outcomes (ok / failed / timeout) are journaled -- an `interrupted`
 * job never is, because its outcome says nothing about what a
 * completed run would have produced.
 */

#ifndef CSCHED_RUNNER_JOURNAL_HH
#define CSCHED_RUNNER_JOURNAL_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runner/job.hh"

namespace csched {

struct GridSpec;

/** Journal schema identifier written into every header. */
inline const char *kJournalSchema = "csched-journal-v1";

/**
 * The grid identity a journal is valid for: axes, speedup flag, and
 * the outcome-affecting policy knobs (deadline, retries).  Resume
 * requires an exact match.
 */
std::string gridFingerprint(const GridSpec &grid);

/** What loading an existing journal yields. */
struct JournalReplay
{
    /** Terminal results keyed by jobKey(), ready to replay. */
    std::map<std::string, JobResult> results;
    /** Unparseable/incomplete lines skipped (crash artifacts). */
    int ignoredLines = 0;
    /** True when the header itself was missing or garbled. */
    bool rewriteHeader = false;
};

/** Append-only journal writer; thread-safe, one instance per run. */
class JobJournal
{
  public:
    /**
     * Open @p path for appending under @p fingerprint.  With
     * @p fresh, any existing file is truncated and a new header is
     * written; otherwise (resume) records are appended after the
     * existing contents, rewriting the header only when the loader
     * found none.  Fails with a Status on I/O errors.
     */
    static StatusOr<std::unique_ptr<JobJournal>>
    open(const std::string &path, const std::string &fingerprint,
         bool fresh, bool rewrite_header = false);

    ~JobJournal();

    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /**
     * Durably append @p result under jobKey(@p spec): serialize to one
     * line, single write(), fsync().  Hits the `journal.append` fault
     * point first; an injected fault simulates a crash mid-append by
     * writing a deliberately truncated record and reporting failure.
     * Thread-safe.
     */
    Status append(const JobSpec &spec, const JobResult &result);

    const std::string &path() const { return path_; }

  private:
    JobJournal(int fd, std::string path);

    Status writeLine(const std::string &line);

    int fd_;
    std::string path_;
    std::mutex mutex_;
    /**
     * Set when an append may have left a partial line (failed or
     * injected-crash write); the next append starts with a newline to
     * re-sync to a line boundary, so one bad append garbles at most
     * one record.
     */
    bool resync_ = false;
};

/**
 * Load the journal at @p path for a resume of the grid identified by
 * @p fingerprint.  A missing file is an empty replay (nothing done
 * yet), a truncated/garbled trailing record is skipped, but a header
 * naming a *different* grid is an InvalidSpec error: resuming someone
 * else's journal would splice unrelated results into the report.
 */
StatusOr<JournalReplay> loadJournal(const std::string &path,
                                    const std::string &fingerprint);

/**
 * Check, reading no further than its header, that the journal at
 * @p path may be resumed by the grid identified by @p fingerprint:
 * the InvalidSpec error loadJournal would return for a header naming
 * a different grid, and success otherwise (a missing file or an
 * unrecognizable header is started over, not refused).
 */
Status checkJournalHeader(const std::string &path,
                          const std::string &fingerprint);

/** Serialize one journal record line (exposed for tests). */
std::string journalRecordLine(const JobSpec &spec,
                              const JobResult &result);

} // namespace csched

#endif // CSCHED_RUNNER_JOURNAL_HH
