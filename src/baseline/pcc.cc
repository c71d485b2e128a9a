#include "baseline/pcc.hh"

#include <algorithm>
#include <set>

#include "sched/list_estimate.hh"
#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"

namespace csched {

namespace {

/** Maximum full passes of iterative descent. */
constexpr int kMaxDescentRounds = 8;

} // namespace

PccIssueModel::PccIssueModel(const DependenceGraph &graph,
                             const MachineModel &machine)
    : graph_(graph),
      machine_(machine),
      width_(machine.numClusters()),
      issued_(machine.numClusters())
{
    for (int c = 0; c < machine.numClusters(); ++c)
        width_[c] = static_cast<int>(machine.clusterFus(c).size());
}

int
PccScheduler::effectiveCap(int n) const
{
    return std::max(4, n / (4 * machine_.numClusters()));
}

PccScheduler::PccScheduler(const MachineModel &machine) : machine_(machine)
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
    ListEstimator<PccIssueModel> estimate(graph, machine_.firstHopLatency(),
                                          machine_);
    int best_makespan = estimate(assignment);

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

    for (int round = 0; round < kMaxDescentRounds; ++round) {
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
                const int makespan = estimate(assignment, best_makespan);
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
