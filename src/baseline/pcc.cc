#include "baseline/pcc.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <tuple>

#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"

namespace csched {

namespace {

/**
 * The estimator behind PccScheduler::estimate, with what does not
 * change between estimates of one graph computed once: the alive-pair
 * communication cost, the per-cluster issue widths and the predecessor
 * counts and the roots.  The issue buckets and the ready heap are
 * cleared, keeping their capacity, at the start of every estimate.
 * The descent calls it once per probe, with its best makespan so far
 * as the bound.
 */
class Estimator
{
  public:
    Estimator(const MachineModel &machine, const DependenceGraph &graph)
        : machine_(machine),
          graph_(graph),
          width_(machine.numClusters()),
          issued_(machine.numClusters()),
          predCount_(graph.numInstructions()),
          unplacedPreds_(graph.numInstructions()),
          dataReady_(graph.numInstructions())
    {
        // Neighbour latency between the first two alive clusters
        // (dead resources never host work, so they must not price the
        // estimate).
        const auto alive = machine.aliveClusters();
        commCost_ =
            alive.size() > 1 ? machine.commLatency(alive[0], alive[1]) : 1;
        // Issue width per cluster: total FU slots, ignoring typing.
        for (int c = 0; c < machine.numClusters(); ++c)
            width_[c] = static_cast<int>(machine.clusterFus(c).size());
        for (InstrId id = 0; id < graph.numInstructions(); ++id) {
            predCount_[id] = static_cast<int>(graph.preds(id).size());
            if (predCount_[id] == 0)
                roots_.push_back(id);
        }
    }

    /**
     * Estimated makespan of @p assignment.  The running maximum finish
     * only grows, so once it reaches @p bound the estimate stops and
     * returns that partial maximum: some value >= @p bound, exact
     * only below it.
     */
    int
    operator()(const std::vector<int> &assignment,
               int bound = std::numeric_limits<int>::max())
    {
        for (auto &slots : issued_)
            slots.clear();
        unplacedPreds_ = predCount_;
        std::fill(dataReady_.begin(), dataReady_.end(), 0);
        heap_.clear();
        for (InstrId id : roots_)
            push(0, id);

        int makespan = 0;
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            const auto [ready, neg_slack, id] = heap_.back();
            heap_.pop_back();
            const int cluster = assignment[id];
            const int start = issueSlot(cluster, ready);
            int finish =
                start + machine_.execLatency(cluster, graph_.latency(id));
            const auto &instr = graph_.instr(id);
            if (isMemory(instr.op))
                finish += machine_.memoryPenalty(instr.memBank, cluster);
            makespan = std::max(makespan, finish);
            if (makespan >= bound)
                return makespan;
            for (InstrId succ : graph_.succs(id)) {
                const int arrival =
                    finish + (assignment[succ] == cluster ? 0 : commCost_);
                dataReady_[succ] = std::max(dataReady_[succ], arrival);
                if (--unplacedPreds_[succ] == 0)
                    push(dataReady_[succ], succ);
            }
        }
        return makespan;
    }

  private:
    /** (data-ready cycle, -slack, id): popped smallest first. */
    using Entry = std::tuple<int, int, InstrId>;

    void
    push(int ready, InstrId id)
    {
        heap_.emplace_back(ready, -graph_.latestFinishSlack(id), id);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    /** First cycle from @p from with a free issue slot on @p cluster;
     *  takes it.  The cycle-bucketed counts grow on demand. */
    int
    issueSlot(int cluster, int from)
    {
        auto &slots = issued_[cluster];
        int cycle = from;
        while (true) {
            if (cycle >= static_cast<int>(slots.size()))
                slots.resize(cycle + 1, 0);
            if (slots[cycle] < width_[cluster]) {
                ++slots[cycle];
                return cycle;
            }
            ++cycle;
        }
    }

    const MachineModel &machine_;
    const DependenceGraph &graph_;
    int commCost_ = 1;
    std::vector<int> width_;
    std::vector<std::vector<int>> issued_;
    std::vector<int> predCount_;
    std::vector<InstrId> roots_;
    std::vector<int> unplacedPreds_;
    std::vector<int> dataReady_;
    std::vector<Entry> heap_;
};

} // namespace

int
PccScheduler::estimate(const DependenceGraph &graph,
                       const std::vector<int> &assignment) const
{
    return Estimator(machine_, graph)(assignment);
}

int
PccScheduler::effectiveCap(int n) const
{
    if (options_.componentCap > 0)
        return options_.componentCap;
    return std::max(4, n / (4 * machine_.numClusters()));
}

PccScheduler::PccScheduler(const MachineModel &machine)
    : PccScheduler(machine, Options())
{
}

PccScheduler::PccScheduler(const MachineModel &machine, Options options)
    : machine_(machine), options_(options)
{
}

std::vector<int>
PccScheduler::buildComponents(const DependenceGraph &graph) const
{
    const int n = graph.numInstructions();
    const int cap = effectiveCap(n);

    std::vector<int> component(n, -1);
    std::vector<int> comp_size;
    std::vector<int> comp_home;

    // Bottom-up: successors are processed before their producers, so
    // walk the topological order in reverse.  This grows components
    // from the leaves towards the roots, critical chains first
    // (the most critical successor is preferred below).
    const auto &topo = graph.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const InstrId id = *it;
        const int home = graph.instr(id).homeCluster;

        // Candidate: the most critical joinable successor component.
        int best_comp = -1;
        int best_slack = -1;
        for (InstrId succ : graph.succs(id)) {
            const int comp = component[succ];
            CSCHED_ASSERT(comp != -1, "successor not yet componentised");
            if (comp_size[comp] >= cap)
                continue;
            if (home != kNoCluster && comp_home[comp] != kNoCluster &&
                comp_home[comp] != home) {
                continue;  // incompatible preplacement homes
            }
            if (graph.latestFinishSlack(succ) > best_slack) {
                best_slack = graph.latestFinishSlack(succ);
                best_comp = comp;
            }
        }

        if (best_comp == -1) {
            best_comp = static_cast<int>(comp_size.size());
            comp_size.push_back(0);
            comp_home.push_back(kNoCluster);
        }
        component[id] = best_comp;
        comp_size[best_comp] += 1;
        if (home != kNoCluster)
            comp_home[best_comp] = home;
    }
    return component;
}

ScheduleResult
PccScheduler::run(const DependenceGraph &graph) const
{
    const int n = graph.numInstructions();
    const int num_clusters = machine_.numClusters();
    const auto component = buildComponents(graph);
    int num_components = 0;
    for (int comp : component)
        num_components = std::max(num_components, comp + 1);

    // Component metadata: members, load (total latency), home.
    std::vector<std::vector<InstrId>> members(num_components);
    std::vector<int> comp_load(num_components, 0);
    std::vector<int> comp_home(num_components, kNoCluster);
    for (InstrId id = 0; id < n; ++id) {
        const int comp = component[id];
        members[comp].push_back(id);
        comp_load[comp] += graph.latency(id);
        const int home = graph.instr(id).homeCluster;
        if (home != kNoCluster) {
            CSCHED_ASSERT(comp_home[comp] == kNoCluster ||
                              comp_home[comp] == home,
                          "component mixes preplacement homes");
            comp_home[comp] = home;
        }
    }

    // Inter-component communication volume (data edges): both
    // directions of every cross-component edge, sorted and
    // run-length counted into ascending (other component, count)
    // lists.  Suite-style graphs have thousands of components, so a
    // dense C x C matrix would not fit.
    std::vector<std::vector<std::pair<int, int>>> comp_edges(
        num_components);
    {
        std::vector<std::pair<int, int>> ends;
        for (const auto &edge : graph.edges()) {
            if (edge.kind != DepKind::Data)
                continue;
            const int a = component[edge.src];
            const int b = component[edge.dst];
            if (a != b) {
                ends.emplace_back(a, b);
                ends.emplace_back(b, a);
            }
        }
        std::sort(ends.begin(), ends.end());
        for (size_t i = 0; i < ends.size();) {
            size_t j = i;
            while (j < ends.size() && ends[j] == ends[i])
                ++j;
            comp_edges[ends[i].first].emplace_back(
                ends[i].second, static_cast<int>(j - i));
            i = j;
        }
    }

    // ---- Initial assignment: big components first, to the cluster
    // with the best load/affinity score; pinned components go home.
    std::vector<int> comp_cluster(num_components, -1);
    std::vector<int> cluster_load(num_clusters, 0);
    std::vector<int> order(num_components);
    for (int i = 0; i < num_components; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return comp_load[a] > comp_load[b];
    });
    for (int comp : order) {
        int chosen;
        if (comp_home[comp] != kNoCluster) {
            chosen = comp_home[comp];
        } else {
            chosen = machine_.firstAliveCluster();
            double best_score = 0.0;
            bool first = true;
            for (int c = 0; c < num_clusters; ++c) {
                if (!machine_.clusterAlive(c))
                    continue;  // dead clusters never host work
                double affinity = 0.0;
                for (const auto &[other, count] : comp_edges[comp])
                    if (comp_cluster[other] == c)
                        affinity += count;
                const double score = cluster_load[c] - 2.0 * affinity;
                if (first || score < best_score) {
                    first = false;
                    best_score = score;
                    chosen = c;
                }
            }
        }
        comp_cluster[comp] = chosen;
        cluster_load[chosen] += comp_load[comp];
    }

    // ---- Iterative descent: move one component at a time to the best
    // improving cluster, guided by the schedule-length estimator.
    const ListScheduler scheduler(machine_);
    const auto priority = criticalPathPriority(graph);
    std::vector<int> assignment(n);
    for (InstrId id = 0; id < n; ++id)
        assignment[id] = comp_cluster[component[id]];
    auto place = [&](int comp, int cluster) {
        for (InstrId id : members[comp])
            assignment[id] = cluster;
    };
    Estimator estimator(machine_, graph);
    int best_makespan = estimator(assignment);

    // A probe onto a cluster that holds no instruction sees that
    // cluster only through its issue width, its latency factor and
    // the memory penalties of the component's own memory operations:
    // the communication cost is uniform, and the only successors on
    // it are the component's members.  Empty clusters that agree on
    // those give equal estimates, so only the lowest-index one of each
    // class can be strictly better than the best so far.
    std::vector<int> cluster_size(num_clusters, 0);
    for (int comp = 0; comp < num_components; ++comp)
        cluster_size[comp_cluster[comp]] +=
            static_cast<int>(members[comp].size());
    std::vector<std::vector<int>> comp_banks(num_components);
    for (int comp = 0; comp < num_components; ++comp) {
        auto &banks = comp_banks[comp];
        for (InstrId id : members[comp])
            if (isMemory(graph.instr(id).op))
                banks.push_back(graph.instr(id).memBank);
        std::sort(banks.begin(), banks.end());
        banks.erase(std::unique(banks.begin(), banks.end()), banks.end());
    }
    std::set<std::vector<int>> probed_classes;
    std::vector<int> key;
    auto first_of_class = [&](int comp, int c) {
        key.assign({static_cast<int>(machine_.clusterFus(c).size()),
                    machine_.latencyFactor(c)});
        for (int bank : comp_banks[comp])
            key.push_back(machine_.memoryPenalty(bank, c));
        return probed_classes.insert(key).second;
    };

    for (int round = 0; round < options_.maxDescentRounds; ++round) {
        bool improved = false;
        for (int comp = 0; comp < num_components; ++comp) {
            // The descent is the superlinear part of PCC (Figure 10),
            // so this is where a deadline must be able to stop it.
            checkpoint("pcc.descent");
            if (comp_home[comp] != kNoCluster)
                continue;  // pinned by preplacement
            const int original = comp_cluster[comp];
            int best_cluster = original;
            probed_classes.clear();
            for (int c = 0; c < num_clusters; ++c) {
                if (c == original || !machine_.clusterAlive(c))
                    continue;
                if (cluster_size[c] == 0 && !first_of_class(comp, c))
                    continue;
                place(comp, c);
                // Only a strictly smaller makespan is kept, so the
                // probe may stop once it reaches the best.
                const int makespan = estimator(assignment, best_makespan);
                if (makespan < best_makespan) {
                    best_makespan = makespan;
                    best_cluster = c;
                }
            }
            place(comp, best_cluster);
            if (best_cluster != original) {
                const int size = static_cast<int>(members[comp].size());
                cluster_size[original] -= size;
                cluster_size[best_cluster] += size;
                comp_cluster[comp] = best_cluster;
                improved = true;
            }
        }
        if (!improved)
            break;
    }

    return {scheduler.run(graph, assignment, priority), {}};
}

} // namespace csched
