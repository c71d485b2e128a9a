/**
 * @file
 * UAS on 1024-tile meshes, pinned to recorded schedule digests.  The
 * same kernels as Uas.MeshSchedulesMatchRecordedDigests, at the mesh
 * size where the cycle loop's per-candidate cluster choice dominates;
 * it runs in the slower tier because each schedule takes a while.
 */

#include <gtest/gtest.h>

#include "uas_digest.hh"

namespace csched {
namespace {

TEST(UasLargeMesh, MeshSchedulesMatchRecordedDigests)
{
    const char *const kFaulted = "raw32x32/faults=seed:1,tiles:10%,links:3%";
    const RecordedDigest recorded[] = {
        {"raw32x32", "mxm", 0xae91cd52a3cd9d77ull},
        {"raw32x32", "tomcatv", 0xbd8eeff9329729a8ull},
        {"raw32x32", "fpppp-kernel", 0xf2ffe4cc8894ee28ull},
        {kFaulted, "mxm", 0x9e0e92d809e4ea49ull},
        {kFaulted, "tomcatv", 0xebb136a69fea7623ull},
        {kFaulted, "fpppp-kernel", 0x6241779d3ad5f9aaull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest(entry);
}

} // namespace
} // namespace csched
