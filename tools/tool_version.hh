/**
 * @file
 * Shared `--version` implementation for every csched binary: one JSON
 * object on stdout with the build's provenance -- git describe and
 * commit, build type, and compiler flags.  The git stamp comes from
 * csched_git_version.hh, which tools/git_version.cmake regenerates on
 * every build; build type and flags are compile definitions from
 * tools/CMakeLists.txt.  One schema for all four tools so drivers (and
 * the CI smoke legs) can assert on it uniformly; "unknown" fallbacks
 * keep builds outside a git checkout, or without the generated header
 * (the standalone perfbench build), working.
 */

#ifndef CSCHED_TOOLS_TOOL_VERSION_HH
#define CSCHED_TOOLS_TOOL_VERSION_HH

#include <iostream>
#include <sstream>

#include "support/json.hh"

#if __has_include("csched_git_version.hh")
#include "csched_git_version.hh"
#endif
#ifndef CSCHED_GIT_DESCRIBE
#define CSCHED_GIT_DESCRIBE "unknown"
#endif
#ifndef CSCHED_GIT_COMMIT
#define CSCHED_GIT_COMMIT "unknown"
#endif
#ifndef CSCHED_BUILD_TYPE
#define CSCHED_BUILD_TYPE "unknown"
#endif
#ifndef CSCHED_CXX_FLAGS
#define CSCHED_CXX_FLAGS ""
#endif

namespace csched {

/** Print the one-object version report for @p tool and return 0. */
inline int
printToolVersion(const char *tool)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("schema").value("csched-tool-version-v1");
        w.key("tool").value(tool);
        w.key("gitDescribe").value(CSCHED_GIT_DESCRIBE);
        w.key("gitCommit").value(CSCHED_GIT_COMMIT);
        w.key("buildType").value(CSCHED_BUILD_TYPE);
        w.key("cxxFlags").value(CSCHED_CXX_FLAGS);
        w.key("compiler").value(__VERSION__);
        w.endObject();
    }
    std::cout << compactJson(out.str()) << "\n";
    return 0;
}

} // namespace csched

#endif // CSCHED_TOOLS_TOOL_VERSION_HH
