/**
 * @file
 * Every workload graph's edge list, pinned to recorded digests.
 *
 * DependenceGraph::addEdge coalesces duplicate edges (a Data edge
 * subsumes Anti/Output ordering), and every analysis and scheduler
 * walks edges(), succs() and preds() in insertion order.  These
 * digests fold each edge's (src, dst, kind), in order, into one
 * FNV-1a hash, so a change to how the graph is built must keep the
 * same edges in the same order.  Graphs are built the way
 * `csched_bench suite` builds them: banks = preplacement clusters.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "schedule_digest.hh"

namespace csched {
namespace {

uint64_t
edgeDigest(const DependenceGraph &graph)
{
    Fnv1a mix;
    mix(graph.numInstructions());
    mix(static_cast<int64_t>(graph.edges().size()));
    for (const DepEdge &edge : graph.edges()) {
        mix(edge.src);
        mix(edge.dst);
        mix(static_cast<int64_t>(edge.kind));
    }
    return mix.hash;
}

void
expectEdgeDigest(const std::string &workload, int banks, uint64_t digest)
{
    const DependenceGraph graph = findWorkload(workload).build(banks, banks);
    EXPECT_EQ(edgeDigest(graph), digest)
        << workload << " at " << banks << " banks: digest 0x" << std::hex
        << edgeDigest(graph) << std::dec << ", " << graph.edges().size()
        << " edges";
}

/**
 * One workload's recorded digests at banks 1, 4, 16 and 256, or a
 * single digest for a workload whose graph ignores the bank count
 * (checked once, at 4 banks).
 */
struct RecordedEdges
{
    const char *workload;
    std::vector<uint64_t> digests;
};

void
PrintTo(const RecordedEdges &recorded, std::ostream *out)
{
    *out << recorded.workload;
}

const int kBanks[] = {1, 4, 16, 256};

const RecordedEdges kRecorded[] = {
    {"cholesky",
     {0x6b54724b04d07bc5ull, 0x2c99bde2354d267dull,
      0x56313266701a8b02ull, 0xe736bbfd959aae68ull}},
    {"tomcatv",
     {0x299444eaa8523999ull, 0x4589717c02003fe6ull,
      0xb276e90125867e10ull, 0xbe19b1067c990d49ull}},
    {"vpenta",
     {0xf308c8acf17324b4ull, 0x487075a6a274d3eeull,
      0xadb5205869c7852dull, 0x814285fdf3854748ull}},
    {"mxm",
     {0x3c67098837d626e6ull, 0x7b4caa16ef8802d6ull,
      0x7c58eba9771c5630ull, 0x2c0a7587e39cb606ull}},
    {"fpppp-kernel", {0x404124a7f0361bdeull}},
    {"sha", {0xa6c73dc4581ddfd0ull}},
    {"swim",
     {0x3be63686d0d0cd22ull, 0x85b0be7079fac742ull,
      0x4eda726402ea7c22ull, 0x0ab47a2c51f94c62ull}},
    {"jacobi",
     {0x0775b1d3e6a47f72ull, 0x8e9a358a263c1e76ull,
      0xfef864432aabfca4ull, 0xbcdc440648ee56e2ull}},
    {"life",
     {0xb52b2a9947c99c6bull, 0x86409addbbcb47beull,
      0x3907f97f72757d87ull, 0x313327543f76797bull}},
    {"vvmul",
     {0x5a8d75076ca7c0beull, 0x694c895399ade4c6ull,
      0xb34b687536b27a4dull, 0xee546c2c4f4d262eull}},
    {"rbsorf",
     {0xe9a5debe7594feaaull, 0x358d58543fd0cfd3ull,
      0x4e637ccb42e91867ull, 0x112f471583914fb0ull}},
    {"yuv",
     {0xbbc21c7eb5cbf154ull, 0x993b9806c4b49ad3ull,
      0x55f66a5f5baeeeb5ull, 0xc5e505a3f0f16484ull}},
    {"fir",
     {0xdb4943f39421b256ull, 0xf4354f7cf5e967a1ull,
      0xc7065d715769c0bfull, 0x3c4878b9889277ceull}},
    {"synth-wide-10k", {0xfdddb752d3a32c9aull}},
    {"synth-narrow-2k", {0xa805defe9b00a6e3ull}},
    {"synth-wide-50k", {0x741b984425b44752ull}},
    {"synth-huge-100k", {0xc90fbd04cdd59f74ull}},
};

class EdgeDigest : public ::testing::TestWithParam<RecordedEdges>
{
};

TEST_P(EdgeDigest, MatchesRecordedDigest)
{
    const RecordedEdges &recorded = GetParam();
    if (recorded.digests.size() == 1) {
        expectEdgeDigest(recorded.workload, 4, recorded.digests[0]);
        return;
    }
    ASSERT_EQ(recorded.digests.size(), std::size(kBanks));
    for (size_t k = 0; k < std::size(kBanks); ++k)
        expectEdgeDigest(recorded.workload, kBanks[k], recorded.digests[k]);
}

INSTANTIATE_TEST_SUITE_P(
    EveryWorkload, EdgeDigest, ::testing::ValuesIn(kRecorded),
    [](const auto &info) {
        std::string name = info.param.workload;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// The raw32x32 size: mxm unrolled over 1024 banks, 65k instructions.
TEST(EdgeDigestLargeMesh, MxmOn1024Banks)
{
    expectEdgeDigest("mxm", 1024, 0xb58ff281b8176596ull);
}

/** Both registries are covered, so a new workload needs a digest. */
TEST(EdgeDigestCoverage, EveryRegisteredWorkloadIsRecorded)
{
    std::vector<std::string> registered;
    for (const auto &spec : allWorkloads())
        registered.push_back(spec.name);
    for (const auto &spec : perfWorkloads())
        registered.push_back(spec.name);
    std::vector<std::string> recorded;
    for (const auto &entry : kRecorded)
        recorded.push_back(entry.workload);
    EXPECT_EQ(recorded, registered);
}

} // namespace
} // namespace csched
