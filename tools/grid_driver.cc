#include "grid_driver.hh"

#include <iostream>

#include "runner/failure_summary.hh"
#include "runner/shutdown.hh"
#include "support/atomic_file.hh"
#include "support/str.hh"

namespace csched {

bool
parseGridFlag(const char *argv0, UsageFn usage,
              const std::vector<std::string> &args, size_t &k,
              GridFlags &flags)
{
    const std::string &arg = args[k];
    auto next = [&]() -> std::string {
        if (k + 1 >= args.size())
            usage(argv0, arg + " needs a value");
        return args[++k];
    };
    auto nextInt = [&]() -> int {
        const std::string text = next();
        const std::optional<int> parsed = parseNonNegativeInt(text);
        if (!parsed)
            usage(argv0, arg + " expects a non-negative integer, got '" +
                             text + "'");
        return parsed.value_or(0);  // usage() exits; no value is used
    };

    GridSpec &grid = flags.grid;
    if (arg == "--jobs") {
        grid.jobs = nextInt();
    } else if (arg == "--deadline-ms") {
        grid.deadlineMs = nextInt();  // 0 = no deadline
    } else if (arg == "--retries") {
        grid.retries = nextInt();
    } else if (arg == "--isolate") {
        grid.isolate = true;
    } else if (arg == "--mem-limit-mb") {
        grid.memLimitMb = nextInt();  // 0 = unlimited
    } else if (arg == "--journal") {
        grid.journalPath = next();
    } else if (arg == "--resume") {
        grid.resume = true;
    } else if (arg == "--hosts") {
        grid.hosts = split(next(), ',');
    } else if (arg == "--dist-opts") {
        // Hidden: dist-client timing overrides for tests and CI (see
        // DistOptions::applyOverrides).
        const Status applied =
            DistOptions::applyOverrides(&flags.dist, next());
        if (!applied.ok())
            usage(argv0, "--dist-opts: " + applied.message());
    } else if (arg == "--keep-going") {
        flags.keepGoing = true;
    } else if (arg == "--inject") {
        // Hidden: deterministic fault injection for the robustness
        // tests (see fault_injection.hh).
        std::string why;
        const auto parsed_plan = FaultPlan::parse(next(), &why);
        if (!parsed_plan.has_value())
            usage(argv0, "--inject: " + why);
        flags.faults = *parsed_plan;
    } else if (arg == "--json") {
        flags.jsonFile = next();
    } else {
        return false;
    }
    return true;
}

int
runGridAndReport(const char *argv0, UsageFn usage,
                 const GridFlags &flags,
                 const ReportOptions &report_options, bool announce_write,
                 const std::function<void(const GridReport &)> &print)
{
    GridSpec grid = flags.grid;
    if (!flags.faults.empty())
        grid.faults = &flags.faults;
    if (!grid.hosts.empty())
        grid.dist = &flags.dist;
    std::string error;
    if (!validateGrid(grid, &error))
        usage(argv0, error);

    installGridSignalHandlers();
    const GridReport report = runGrid(grid);
    if (print)
        print(report);

    const std::string &json_file = flags.jsonFile;
    if (json_file == "-") {
        writeGridReport(std::cout, report, report_options);
    } else if (!json_file.empty()) {
        // Driver-level fault scope so --inject can target the report
        // write itself (the jobs ran in their own scopes).
        FaultScope report_faults(grid.faults, "report");
        ScopedFaultScope report_fault_guard(&report_faults);
        const Status written = writeFileAtomic(
            json_file, gridReportToJson(report, report_options));
        if (!written.ok()) {
            std::cerr << argv0 << ": " << written.toString() << "\n";
            return 1;
        }
        if (announce_write)
            std::cout << "wrote " << json_file << "\n";
    }

    printFailureSummary(std::cerr, report);
    return gridExitCode(report, flags.keepGoing);
}

} // namespace csched
