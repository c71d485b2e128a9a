/**
 * @file
 * The mesh baselines on 1024-tile meshes, pinned to recorded schedule
 * digests.  The same kernels as the tier-1
 * MeshSchedulesMatchRecordedDigests cases of UAS, PCC and Rawcc, at
 * the mesh size where each baseline's inner loop (UAS's per-candidate
 * cluster choice, PCC's descent probes, Rawcc's merges and placement
 * swaps) dominates; they run in the slower tier because each schedule
 * takes a while.
 */

#include <gtest/gtest.h>

#include "schedule_digest.hh"

namespace csched {
namespace {

const char *const kFaulted = "raw32x32/faults=seed:1,tiles:10%,links:3%";

TEST(UasLargeMesh, MeshSchedulesMatchRecordedDigests)
{
    const RecordedDigest recorded[] = {
        {"raw32x32", "mxm", 0xae91cd52a3cd9d77ull},
        {"raw32x32", "tomcatv", 0xbd8eeff9329729a8ull},
        {"raw32x32", "fpppp-kernel", 0xf2ffe4cc8894ee28ull},
        {kFaulted, "mxm", 0x9e0e92d809e4ea49ull},
        {kFaulted, "tomcatv", 0xebb136a69fea7623ull},
        {kFaulted, "fpppp-kernel", 0x6241779d3ad5f9aaull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest("uas", entry);
}

// Plus the slowest small PCC cell: on fpppp-kernel the descent keeps
// many moves, and every free component has occupied tiles to probe.
TEST(PccLargeMesh, MeshSchedulesMatchRecordedDigests)
{
    const RecordedDigest recorded[] = {
        {"raw32x32", "tomcatv", 0xd2a7d7c85903609full},
        {kFaulted, "tomcatv", 0x14fe6003bf4b29a6ull},
        {"raw8x8/faults=seed:2,tiles:5%,slow:20%", "fpppp-kernel",
         0x7d06181b384d5dbeull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest("pcc", entry);
}

TEST(RawccLargeMesh, MeshSchedulesMatchRecordedDigests)
{
    const RecordedDigest recorded[] = {
        {"raw32x32", "mxm", 0x5b30f5a6fca74659ull},
        {"raw32x32", "tomcatv", 0xa401e1b83dbfd31dull},
        {"raw32x32", "fpppp-kernel", 0xc8c637c7f4e73206ull},
        {kFaulted, "mxm", 0x7c398a56c346d0c4ull},
        {kFaulted, "tomcatv", 0xb854e0623bb048ddull},
        {kFaulted, "fpppp-kernel", 0x071a399d0d3310a8ull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest("rawcc", entry);
}

} // namespace
} // namespace csched
