#include "runner/bench_report.hh"

#include <map>
#include <sstream>

#include "support/json.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace csched {

std::string
BenchCell::key() const
{
    std::string key = workload + "/" + machine + "/" +
                      (kernel.empty() ? algorithm : kernel);
    if (!kernel.empty() && !algorithm.empty())
        key += "/" + algorithm;  // a mesh kernel timed per algorithm
    return key;
}

std::string
benchReportToJson(const BenchReport &report)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("schema").value(kBenchReportSchema);
        w.key("kind").value(report.kind);
        w.key("meta").beginObject();
        w.key("commit").value(report.meta.commit);
        w.key("gitDescribe").value(report.meta.gitDescribe);
        w.key("buildType").value(report.meta.buildType);
        w.key("compiler").value(report.meta.compiler);
        w.key("flags").value(report.meta.flags);
        w.key("host").value(report.meta.host);
        w.key("repeats").value(report.meta.repeats);
        w.endObject();
        w.key("cells").beginArray();
        for (const auto &cell : report.cells) {
            w.beginObject();
            w.key("workload").value(cell.workload);
            w.key("machine").value(cell.machine);
            if (!cell.kernel.empty())
                w.key("kernel").value(cell.kernel);
            if (!cell.algorithm.empty())
                w.key("algorithm").value(cell.algorithm);
            w.key("medianSeconds").value(cell.medianSeconds);
            if (cell.minSeconds >= 0.0)
                w.key("minSeconds").value(cell.minSeconds);
            w.key("reps").value(cell.reps);
            if (cell.instructions > 0)
                w.key("instructions").value(cell.instructions);
            if (cell.makespan > 0)
                w.key("makespan").value(cell.makespan);
            if (cell.preRewriteSeconds >= 0.0)
                w.key("preRewriteSeconds")
                    .value(cell.preRewriteSeconds);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    out << "\n";
    return out.str();
}

namespace {

bool
parseCell(const JsonValue &value, BenchCell *cell, std::string *error)
{
    const JsonValue *workload = value.find("workload");
    const JsonValue *machine = value.find("machine");
    const JsonValue *median = value.find("medianSeconds");
    if (workload == nullptr || machine == nullptr || median == nullptr) {
        if (error != nullptr)
            *error = "cell missing workload/machine/medianSeconds";
        return false;
    }
    cell->workload = workload->string;
    cell->machine = machine->string;
    cell->medianSeconds = median->asDouble();
    if (const JsonValue *kernel = value.find("kernel"))
        cell->kernel = kernel->string;
    if (const JsonValue *algorithm = value.find("algorithm"))
        cell->algorithm = algorithm->string;
    if (const JsonValue *min = value.find("minSeconds"))
        cell->minSeconds = min->asDouble();
    if (const JsonValue *reps = value.find("reps"))
        cell->reps = reps->asInt();
    if (const JsonValue *instrs = value.find("instructions"))
        cell->instructions = instrs->asInt();
    if (const JsonValue *makespan = value.find("makespan"))
        cell->makespan = makespan->asInt();
    if (const JsonValue *pre = value.find("preRewriteSeconds"))
        cell->preRewriteSeconds = pre->asDouble();
    return true;
}

} // namespace

std::optional<BenchReport>
parseBenchReport(const std::string &text, std::string *error)
{
    const auto doc = parseJson(text, error);
    if (!doc.has_value())
        return std::nullopt;
    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || schema->string != kBenchReportSchema) {
        if (error != nullptr)
            *error = "not a " + std::string(kBenchReportSchema) +
                     " document";
        return std::nullopt;
    }
    BenchReport report;
    if (const JsonValue *kind = doc->find("kind"))
        report.kind = kind->string;
    if (const JsonValue *meta = doc->find("meta")) {
        if (const JsonValue *v = meta->find("commit"))
            report.meta.commit = v->string;
        if (const JsonValue *v = meta->find("gitDescribe"))
            report.meta.gitDescribe = v->string;
        if (const JsonValue *v = meta->find("buildType"))
            report.meta.buildType = v->string;
        if (const JsonValue *v = meta->find("compiler"))
            report.meta.compiler = v->string;
        if (const JsonValue *v = meta->find("flags"))
            report.meta.flags = v->string;
        if (const JsonValue *v = meta->find("host"))
            report.meta.host = v->string;
        if (const JsonValue *v = meta->find("repeats"))
            report.meta.repeats = v->asInt();
    }
    const JsonValue *cells = doc->find("cells");
    if (cells == nullptr || cells->kind != JsonValue::Kind::Array) {
        if (error != nullptr)
            *error = "missing cells array";
        return std::nullopt;
    }
    for (const auto &entry : cells->array) {
        BenchCell cell;
        if (!parseCell(entry, &cell, error))
            return std::nullopt;
        report.cells.push_back(cell);
    }
    return report;
}

bool
compareBenchReports(const BenchReport &baseline,
                    const BenchReport &current,
                    const BenchCompareOptions &options, std::ostream &out)
{
    std::map<std::string, const BenchCell *> base_by_key;
    for (const auto &cell : baseline.cells)
        base_by_key[cell.key()] = &cell;

    TablePrinter table({"cell", "baseline-ms", "current-ms", "delta",
                        "verdict"});
    bool ok = true;
    std::map<std::string, bool> joined;
    for (const auto &cell : current.cells) {
        const auto it = base_by_key.find(cell.key());
        if (it == base_by_key.end()) {
            table.addRow({cell.key(), "-",
                          formatDouble(cell.medianSeconds * 1e3, 3),
                          "-", "new"});
            continue;
        }
        joined[cell.key()] = true;
        const BenchCell &base = *it->second;
        // Gate on best-of-N when both sides carry it: the minimum is
        // far less sensitive to ambient machine load than the median,
        // so the gate flags engine regressions, not noisy neighbours.
        const bool use_min =
            base.minSeconds >= 0.0 && cell.minSeconds >= 0.0;
        const double base_s =
            use_min ? base.minSeconds : base.medianSeconds;
        const double cur_s =
            use_min ? cell.minSeconds : cell.medianSeconds;
        const double delta =
            base_s > 0.0 ? (cur_s - base_s) / base_s : 0.0;
        std::string verdict = "ok";
        if (base_s < options.minBaselineSeconds) {
            verdict = "noise";
        } else if (delta > options.slowdownThreshold) {
            verdict = "REGRESSED";
            ok = false;
        } else if (delta < -options.slowdownThreshold) {
            verdict = "faster";
        }
        table.addRow({cell.key(), formatDouble(base_s * 1e3, 3),
                      formatDouble(cur_s * 1e3, 3),
                      formatDouble(delta * 100.0, 1) + "%", verdict});
    }
    for (const auto &cell : baseline.cells)
        if (joined.find(cell.key()) == joined.end())
            table.addRow({cell.key(),
                          formatDouble(cell.medianSeconds * 1e3, 3),
                          "-", "-", "missing"});
    table.print(out);
    return ok;
}

} // namespace csched
