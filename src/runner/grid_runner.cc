#include "runner/grid_runner.hh"

#include <chrono>
#include <csignal>
#include <exception>
#include <memory>

#include "dist/remote_pool.hh"
#include "eval/speedup.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "online/online_grid.hh"
#include "runner/journal.hh"
#include "runner/shutdown.hh"
#include "runner/thread_pool.hh"
#include "runner/worker.hh"
#include "support/backoff.hh"
#include "support/cancel.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"
#include "support/socket.hh"
#include "workloads/workloads.hh"

namespace csched {

const char *
jobOutcomeName(JobOutcome outcome)
{
    switch (outcome) {
      case JobOutcome::Ok:
        return "ok";
      case JobOutcome::Failed:
        return "failed";
      case JobOutcome::Timeout:
        return "timeout";
      case JobOutcome::Interrupted:
        return "interrupted";
    }
    CSCHED_PANIC("unreachable job outcome ", static_cast<int>(outcome));
}

std::optional<JobOutcome>
parseJobOutcomeName(const std::string &name)
{
    for (const JobOutcome candidate :
         {JobOutcome::Ok, JobOutcome::Failed, JobOutcome::Timeout,
          JobOutcome::Interrupted}) {
        if (name == jobOutcomeName(candidate))
            return candidate;
    }
    return std::nullopt;
}

std::string
jobKey(const JobSpec &spec)
{
    return spec.workload + "/" + spec.machine + "/" +
           spec.algorithm.text();
}

namespace {

/**
 * One attempt of one job.  Recoverable failures come back as a
 * Status: either returned directly (spec/baseline/checker problems)
 * or thrown as StatusError from a cancellation poll or fault point
 * deep inside a scheduler loop and caught here.  Measurement fields
 * of @p out are written only on the success path.
 */
Status
runJobAttempt(const JobSpec &spec, const JobPolicy &policy,
              const BaselineMemo *baselines, JobResult &out)
{
    try {
        CancelToken token;
        if (policy.deadlineMs > 0)
            token.armDeadline(policy.deadlineMs);
        ScopedCancelToken cancel_guard(&token);

        checkpoint("runner.job.start");

        // Online cells (stream workload x policy) take their own
        // path: same cancel token, same fault scope, same StatusError
        // unwinding through the catch below.
        if (isOnlineJobSpec(spec))
            return runOnlineJobAttempt(spec, out);

        std::string machine_error;
        const auto machine = parseMachineSpec(spec.machine, &machine_error);
        if (machine == nullptr)
            return Status::invalidSpec(machine_error);

        const WorkloadSpec *workload = tryFindWorkload(spec.workload);
        if (workload == nullptr)
            return Status::invalidSpec("unknown workload '" +
                                       spec.workload + "'");

        DependenceGraph graph = workload->build(machine->numClusters(),
                                                machine->numClusters());
        // Degraded machines: move preplaced homes off dead clusters.
        remapPreplacedForMachine(graph, *machine);

        auto algorithm = tryMakeAlgorithm(spec.algorithm, *machine);
        if (!algorithm.ok())
            return algorithm.status();

        auto run = tryRunAndCheck(**algorithm, graph, *machine);
        if (!run.ok())
            return run.status();

        int baseline = 0;
        if (spec.computeSpeedup) {
            if (baselines != nullptr) {
                const auto it =
                    baselines->find({spec.workload, spec.machine});
                CSCHED_ASSERT(it != baselines->end(),
                              "baseline memo missing ", spec.workload,
                              " on ", spec.machine);
                if (!it->second.status.ok())
                    return it->second.status;
                baseline = it->second.makespan;
            } else {
                const auto computed =
                    trySingleClusterMakespan(*workload, *machine);
                if (!computed.ok())
                    return computed.status();
                baseline = *computed;
            }
            if (run->makespan <= 0)
                return Status::internal(
                    "zero makespan for a non-empty graph");
        }

        out.algorithmName = run->algorithm;
        out.instructions = run->instructions;
        out.makespan = run->makespan;
        out.criticalPathLength = graph.criticalPathLength();
        out.assignment = run->result.schedule.assignment();
        out.seconds = run->seconds;
        out.trace = std::move(run->result.trace);
        if (policy.keepSchedule)
            out.schedule = std::make_shared<const Schedule>(
                std::move(run->result.schedule));
        if (spec.computeSpeedup) {
            out.singleClusterMakespan = baseline;
            out.speedup = static_cast<double>(baseline) /
                          static_cast<double>(out.makespan);
        }
        return Status();
    } catch (const StatusError &error) {
        return error.status;
    } catch (const std::exception &error) {
        // Not a library invariant (those panic/abort): record it.
        return Status::internal(std::string("uncaught exception: ") +
                                error.what());
    }
}

/**
 * The deterministic shutdown hook: hit the `runner.interrupt` fault
 * point inside the current fault scope; an armed rule firing here is
 * translated into the same global interrupt a SIGINT would cause
 * (synthetic SIGINT, so the exit-code contract holds).
 */
void
interruptPoint()
{
    try {
        faultPoint("runner.interrupt");
    } catch (const StatusError &) {
        requestInterrupt(SIGINT);
    }
}

/**
 * One (workload, machine) baseline under the same isolation as a job.
 * Scope keys end in "/single-cluster" so fault rules can target or
 * spare the baseline phase via match=.
 */
BaselineEntry
computeBaseline(const std::string &workload,
                const std::string &machine_spec, const JobPolicy &policy)
{
    const std::string key =
        workload + "/" + machine_spec + "/single-cluster";
    FaultScope faults(policy.faults, key);
    ScopedFaultScope fault_guard(&faults);
    ScopedLogContext log_context("baseline " + key);

    BaselineEntry entry;
    try {
        CancelToken token;
        if (policy.deadlineMs > 0)
            token.armDeadline(policy.deadlineMs);
        ScopedCancelToken cancel_guard(&token);

        // The baseline is a unit of work like any job (its scope key
        // just ends in "/single-cluster"), so it starts at the same
        // fault point.
        checkpoint("runner.job.start");

        std::string machine_error;
        const auto machine =
            parseMachineSpec(machine_spec, &machine_error);
        if (machine == nullptr) {
            entry.status = Status::invalidSpec(machine_error);
            return entry;
        }
        const WorkloadSpec *spec = tryFindWorkload(workload);
        if (spec == nullptr) {
            entry.status = Status::invalidSpec("unknown workload '" +
                                               workload + "'");
            return entry;
        }
        const auto makespan = trySingleClusterMakespan(*spec, *machine);
        if (!makespan.ok()) {
            entry.status = makespan.status();
            return entry;
        }
        entry.makespan = *makespan;
    } catch (const StatusError &error) {
        entry.status =
            error.status.withContext("single-cluster baseline");
    } catch (const std::exception &error) {
        entry.status = Status::internal(
            std::string("single-cluster baseline: uncaught exception: ") +
            error.what());
    }
    return entry;
}

/** Runs each job on the calling thread: runJob()'s retry loop. */
class InProcessExecutor final : public JobExecutor
{
  private:
    void execute(const JobSpec &spec, const JobPolicy &policy,
                 const BaselineMemo *baselines,
                 JobResult &result) override;
    bool runsJobBody() const override { return true; }
};

} // namespace

int
retryBackoffMs(const std::string &job_key, int attempt)
{
    CSCHED_ASSERT(attempt >= 2,
                  "backoff applies from the second attempt on");
    // Capped well below a deadline-scale pause: a retry exists to
    // outlive a *transient* fault, not to reschedule the job for later.
    return jitteredBackoffMs(job_key, static_cast<uint64_t>(attempt), 10,
                             200, attempt - 2);
}

void
markInterrupted(JobResult &result, const char *when)
{
    result.outcome = JobOutcome::Interrupted;
    result.error = ErrorCode::Interrupted;
    result.diagnostic = std::string("shutdown requested ") + when;
    result.workerSignal = 0;
    result.workerExitStatus = 0;
}

void
appendBackoffNote(JobResult &result, const std::vector<int> &delays)
{
    if (delays.empty() || result.outcome == JobOutcome::Ok ||
        result.outcome == JobOutcome::Interrupted)
        return;
    result.diagnostic += " [retry backoff ms:";
    for (const int ms : delays)
        result.diagnostic += " " + std::to_string(ms);
    result.diagnostic += "]";
}

JobResult
JobExecutor::run(const JobSpec &spec, const JobPolicy &policy,
                 const BaselineMemo *baselines)
{
    JobResult result;
    result.workload = spec.workload;
    result.machine = spec.machine;
    result.algorithm = spec.algorithm.text();

    // One fault scope per *job*: hit counters persist across retries
    // and re-dispatches, so an nth=1 rule models a transient fault the
    // retry heals.
    FaultScope faults(policy.faults, jobKey(spec));
    ScopedFaultScope fault_guard(&faults);
    ScopedLogContext log_context("job " + jobKey(spec));

    if (runsJobBody())
        interruptPoint();
    if (interruptRequested()) {
        markInterrupted(result, "before the job started");
        result.attempts = 0;
        return result;
    }
    execute(spec, policy, baselines, result);
    return result;
}

void
InProcessExecutor::execute(const JobSpec &spec, const JobPolicy &policy,
                           const BaselineMemo *baselines,
                           JobResult &result)
{
    const int max_attempts = 1 + std::max(0, policy.retries);
    std::vector<int> backoffs;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        result.attempts = attempt;
        const Status status =
            runJobAttempt(spec, policy, baselines, result);
        if (status.ok()) {
            result.outcome = JobOutcome::Ok;
            result.error = ErrorCode::Ok;
            result.diagnostic.clear();
            break;
        }
        if (status.code() == ErrorCode::Interrupted) {
            // Shutdown, not a verdict: the job re-runs on resume.
            result.outcome = JobOutcome::Interrupted;
            result.error = status.code();
            result.diagnostic = status.message();
            break;
        }
        result.outcome = status.code() == ErrorCode::Timeout
                             ? JobOutcome::Timeout
                             : JobOutcome::Failed;
        result.error = status.code();
        result.diagnostic = status.message();
        // A spec problem is permanent; retrying cannot heal it.
        if (status.code() == ErrorCode::InvalidSpec)
            break;
        // Never burn retries during a drain: with attempts left the
        // outcome is not terminal yet, so hand the job back as
        // `interrupted` (a journaled failure here could differ from
        // what an uninterrupted run's remaining retries would give).
        if (attempt < max_attempts && interruptRequested()) {
            markInterrupted(result, "between retry attempts");
            break;
        }
        // Jittered exponential backoff before the next attempt, so
        // retries of simultaneously-failing jobs (shared-cause
        // faults, resource exhaustion) do not stampede in lockstep.
        // Skipped entirely during a drain (checked above and inside
        // the sliced sleep).
        if (attempt < max_attempts) {
            const int delay =
                retryBackoffMs(jobKey(spec), attempt + 1);
            backoffs.push_back(delay);
            sleepUnlessInterrupted(delay);
        }
    }
    appendBackoffNote(result, backoffs);
}

JobResult
runJob(const JobSpec &spec, const JobPolicy &policy,
       const BaselineMemo *baselines)
{
    return InProcessExecutor().run(spec, policy, baselines);
}

std::vector<JobSpec>
expandGrid(const GridSpec &grid)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(grid.workloads.size() * grid.machines.size() *
                 grid.algorithms.size());
    for (const auto &workload : grid.workloads)
        for (const auto &machine : grid.machines)
            for (const auto &algorithm : grid.algorithms)
                jobs.push_back({workload, machine, algorithm,
                                grid.computeSpeedup});
    return jobs;
}

bool
validateGrid(const GridSpec &grid, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    if (grid.jobs < 0)
        return fail("--jobs must be >= 0 (0 = hardware concurrency)");
    if (grid.deadlineMs < 0)
        return fail("--deadline-ms must be >= 0 (0 = no deadline)");
    if (grid.retries < 0)
        return fail("--retries must be >= 0");
    if (grid.memLimitMb < 0)
        return fail("--mem-limit-mb must be >= 0 (0 = unlimited)");
    if (grid.workloads.empty() || grid.machines.empty() ||
        grid.algorithms.empty())
        return fail("empty grid: need at least one workload, machine, "
                    "and algorithm");
    if (!grid.hosts.empty() && grid.isolate)
        return fail("--hosts and --isolate are mutually exclusive "
                    "(remote hosts already isolate every job)");
    for (const auto &endpoint : grid.hosts) {
        std::string host;
        uint16_t port = 0;
        const Status parsed = parseHostPort(endpoint, &host, &port);
        if (!parsed.ok())
            return fail("--hosts: " + parsed.message());
    }

    for (const auto &name : grid.workloads) {
        if (isStreamWorkload(name)) {
            std::string why;
            if (!parseStreamSpec(name, &why))
                return fail(why);
            continue;
        }
        bool known = false;
        for (const auto &spec : allWorkloads())
            known |= spec.name == name;
        if (!known)
            return fail("unknown workload '" + name + "'");
    }
    for (const auto &machine : grid.machines) {
        std::string why;
        if (parseMachineSpec(machine, &why) == nullptr)
            return fail(why);
    }
    for (const auto &algorithm : grid.algorithms) {
        std::string why;
        if (!parseAlgorithmSpec(algorithm.text(), &why))
            return fail(why);
    }
    // Last, because the journal's fingerprint covers the axes above.
    if (grid.resume) {
        if (grid.journalPath.empty())
            return fail("--resume requires --journal");
        const Status header =
            checkJournalHeader(grid.journalPath, gridFingerprint(grid));
        if (!header.ok())
            return fail(header.message());
    }
    return true;
}

GridReport
runGrid(const GridSpec &grid)
{
    std::string error;
    if (!validateGrid(grid, &error))
        CSCHED_FATAL("invalid grid: ", error);

    const auto jobs = expandGrid(grid);
    const JobPolicy policy{grid.deadlineMs, grid.retries, grid.faults,
                           grid.keepSchedules};
    GridReport report;
    report.results.resize(jobs.size());

    // Durability setup.  The fingerprint pins the grid identity; a
    // resume first replays journaled terminal outcomes into their
    // pre-assigned slots, then the journal is (re)opened for appending
    // the outcomes this run produces.
    const std::string fingerprint = gridFingerprint(grid);
    std::vector<char> replayed(jobs.size(), 0);
    bool rewrite_header = false;
    if (grid.resume) {
        // validateGrid has checked the header, the only way a load
        // fails.
        auto loaded = loadJournal(grid.journalPath, fingerprint);
        CSCHED_ASSERT(loaded.ok(), loaded.status().toString());
        rewrite_header = loaded->rewriteHeader;
        if (loaded->ignoredLines > 0)
            CSCHED_WARN("journal '", grid.journalPath, "': skipped ",
                        loaded->ignoredLines,
                        " incomplete record(s); those jobs re-run");
        for (size_t k = 0; k < jobs.size(); ++k) {
            const auto it = loaded->results.find(jobKey(jobs[k]));
            if (it == loaded->results.end())
                continue;
            report.results[k] = it->second;
            replayed[k] = 1;
            ++report.replayed;
        }
    }
    std::unique_ptr<JobJournal> journal;
    if (!grid.journalPath.empty()) {
        auto opened = JobJournal::open(grid.journalPath, fingerprint,
                                       !grid.resume, rewrite_header);
        if (!opened.ok())
            CSCHED_FATAL("cannot open journal: ",
                         opened.status().toString());
        journal = std::move(*opened);
    }

    // Where every job runs, decided once, before the thread pool
    // exists: initial workers fork from a quiescent, single-threaded
    // parent (mid-run respawns fork under the logging fork guard), and
    // the dist client's threads come up first.  The CPU rlimit is a
    // coarse backstop under the watchdog, armed only with a deadline.
    // Baselines stay client-computed and ship in each job frame, so
    // every worker's execution is a pure function of the frame.
    std::unique_ptr<JobExecutor> executor;
    if (grid.isolate) {
        const int pool_size = grid.jobs > 0
                                  ? grid.jobs
                                  : ThreadPool::defaultConcurrency();
        executor = std::make_unique<WorkerPool>(
            pool_size, grid.memLimitMb,
            grid.deadlineMs > 0 ? 900 : 0);
    } else if (!grid.hosts.empty()) {
        DistOptions dist_options =
            grid.dist != nullptr ? *grid.dist : DistOptions{};
        dist_options.hosts = grid.hosts;
        auto fleet = std::make_unique<RemoteWorkerPool>(
            std::move(dist_options));
        const Status started = fleet->start();
        if (!started.ok())
            CSCHED_FATAL("cannot start remote fleet: ",
                         started.toString());
        executor = std::move(fleet);
    } else {
        executor = std::make_unique<InProcessExecutor>();
    }

    const auto begin = std::chrono::steady_clock::now();
    {
        // Each task writes only its own pre-assigned slot; the pool
        // imposes no ordering, the slot layout does.
        ThreadPool pool(grid.jobs);
        report.threads = pool.numThreads();

        // Phase 1: one single-cluster baseline per (workload, machine)
        // pair, instead of one per job.  The memo's entries are
        // created up front (in deterministic grid order), so the
        // workers mutate disjoint, pre-existing slots.  On resume,
        // only pairs with at least one job still to run are computed.
        BaselineMemo baselines;
        if (grid.computeSpeedup) {
            // Stream cells have no one-cluster normalisation (their
            // job path never consults the memo), so don't compute one.
            for (size_t k = 0; k < jobs.size(); ++k)
                if (!replayed[k] && !isStreamWorkload(jobs[k].workload))
                    baselines.try_emplace(
                        {jobs[k].workload, jobs[k].machine});
            for (auto &pair : baselines)
                pool.submit([&pair, &policy] {
                    pair.second = computeBaseline(
                        pair.first.first, pair.first.second, policy);
                });
            pool.wait();
        }

        // Phase 2: the grid itself.  Terminal outcomes are journaled
        // the moment they complete; `interrupted` results are not (the
        // job re-runs on resume -- see runner/journal.hh).
        for (size_t k = 0; k < jobs.size(); ++k) {
            if (replayed[k])
                continue;
            pool.submit([&jobs, &report, &policy, &baselines, &journal,
                         &executor, k] {
                report.results[k] =
                    executor->run(jobs[k], policy, &baselines);
                const JobResult &result = report.results[k];
                // An `interrupted` job drains the whole grid wherever
                // it ran; in-process jobs already raised it.
                if (result.outcome == JobOutcome::Interrupted) {
                    if (!interruptRequested())
                        requestInterrupt(SIGINT);
                    return;
                }
                if (journal == nullptr)
                    return;
                // Appends run in the job's own fault scope (suffix
                // "/journal") so tests can target one job's append.
                FaultScope faults(policy.faults,
                                  jobKey(jobs[k]) + "/journal");
                ScopedFaultScope fault_guard(&faults);
                const Status status =
                    journal->append(jobs[k], result);
                if (!status.ok())
                    CSCHED_WARN("journal append failed (job still "
                                "ran): ",
                                status.toString());
            });
        }
        pool.wait();
    }
    const auto end = std::chrono::steady_clock::now();
    report.wallSeconds =
        std::chrono::duration<double>(end - begin).count();

    report.interrupted = interruptRequested();
    for (const auto &result : report.results) {
        ++report.summary.total;
        switch (result.outcome) {
          case JobOutcome::Ok:
            ++report.summary.ok;
            if (result.retriedThenOk())
                ++report.summary.retried;
            break;
          case JobOutcome::Failed:
            ++report.summary.failed;
            break;
          case JobOutcome::Timeout:
            ++report.summary.timeout;
            break;
          case JobOutcome::Interrupted:
            ++report.summary.interrupted;
            break;
        }
    }
    return report;
}

} // namespace csched
