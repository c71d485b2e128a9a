/**
 * @file
 * Test-only helpers that pin baseline schedules to recorded digests:
 * build a paper kernel the way the mesh benchmarks do (16 banks,
 * preplacement re-homed for the machine), schedule it with a named
 * algorithm, and fold every placement and every communication event
 * into one 64-bit hash.  The hash itself (Fnv1a) also pins the edge
 * lists of graph_digest_test.cc.
 */

#ifndef CSCHED_TESTS_SCHEDULE_DIGEST_HH
#define CSCHED_TESTS_SCHEDULE_DIGEST_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "eval/experiment.hh"
#include "machine/machine_spec.hh"
#include "sched/schedule.hh"
#include "workloads/workloads.hh"

namespace csched {

/** 64-bit FNV-1a over a sequence of integers, each folded as 8 bytes. */
struct Fnv1a
{
    uint64_t hash = 14695981039346656037ull;

    void operator()(int64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
};

/** 64-bit FNV-1a over every field of @p schedule, in a fixed order. */
inline uint64_t
scheduleDigest(const Schedule &schedule)
{
    Fnv1a mix;
    mix(schedule.numInstructions());
    for (InstrId id = 0; id < schedule.numInstructions(); ++id) {
        const Placement &p = schedule.at(id);
        mix(p.cluster);
        mix(p.cycle);
        mix(p.fu);
        mix(p.finish);
    }
    mix(static_cast<int64_t>(schedule.comms().size()));
    for (const CommEvent &event : schedule.comms()) {
        mix(event.producer);
        mix(event.fromCluster);
        mix(event.toCluster);
        mix(event.start);
        mix(event.arrive);
        mix(event.fu);
        mix(static_cast<int64_t>(event.linkSlots.size()));
        for (const auto &[link, cycle] : event.linkSlots) {
            mix(link);
            mix(cycle);
        }
    }
    return mix.hash;
}

/** One recorded schedule: a kernel on a machine spec, and its digest. */
struct RecordedDigest
{
    const char *machine;
    const char *kernel;
    uint64_t digest;
};

/**
 * Schedule @p recorded.kernel on @p recorded.machine with the
 * algorithm named @p algorithm (e.g. "uas") and expect the recorded
 * digest.
 */
inline void
expectRecordedDigest(const char *algorithm, const RecordedDigest &recorded)
{
    auto machine = tryParseMachineSpec(recorded.machine);
    ASSERT_TRUE(machine.ok()) << recorded.machine;
    const auto spec = parseAlgorithmSpec(algorithm);
    ASSERT_TRUE(spec.has_value()) << algorithm;
    DependenceGraph graph =
        findWorkload(recorded.kernel).build(16, (*machine)->numClusters());
    remapPreplacedForMachine(graph, **machine);
    const Schedule schedule =
        makeAlgorithm(*spec, **machine)->schedule(graph);
    EXPECT_EQ(scheduleDigest(schedule), recorded.digest)
        << algorithm << " " << recorded.kernel << " on "
        << recorded.machine << ": digest 0x"
        << std::hex << scheduleDigest(schedule) << std::dec
        << ", makespan " << schedule.makespan();
}

} // namespace csched

#endif // CSCHED_TESTS_SCHEDULE_DIGEST_HH
