#include "machine/fault_map.hh"

#include <algorithm>
#include <cctype>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/str.hh"

namespace csched {

namespace {

/** Parse a non-negative decimal integer; -1 on anything else. */
long
parseNonNegative(const std::string &text, int max_digits)
{
    if (text.empty() || static_cast<int>(text.size()) > max_digits)
        return -1;
    long value = 0;
    for (char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return -1;
        value = value * 10 + (c - '0');
    }
    return value;
}

/** Parse "30%" into 30, or a `+`-separated id list; false on error. */
bool
parseCategory(const std::string &value, int *pct, std::vector<int> *ids,
              std::string *why)
{
    if (value.empty()) {
        *why = "empty value";
        return false;
    }
    if (value.back() == '%') {
        const long p = parseNonNegative(value.substr(0, value.size() - 1), 3);
        if (p < 0 || p > 100) {
            *why = "expected a percentage in 0..100";
            return false;
        }
        *pct = static_cast<int>(p);
        return true;
    }
    for (const std::string &part : split(value, '+')) {
        const long id = parseNonNegative(part, 6);
        if (id < 0) {
            *why = "expected a percentage (e.g. 5%) or a +-separated "
                   "id list (e.g. 3+7)";
            return false;
        }
        ids->push_back(static_cast<int>(id));
    }
    return true;
}

/**
 * Deterministic draw of @p count distinct elements from @p universe
 * (partial Fisher-Yates); the draw order depends only on @p rng.
 */
std::vector<int>
drawWithoutReplacement(std::vector<int> universe, int count, Rng &rng)
{
    count = std::min<int>(count, static_cast<int>(universe.size()));
    std::vector<int> chosen;
    chosen.reserve(count);
    for (int i = 0; i < count; ++i) {
        const int j =
            i + rng.range(static_cast<int>(universe.size()) - i);
        std::swap(universe[i], universe[j]);
        chosen.push_back(universe[i]);
    }
    return chosen;
}

int
percentCount(int universe, int pct)
{
    return static_cast<int>((static_cast<long>(universe) * pct + 50) / 100);
}

} // namespace

StatusOr<FaultSpec>
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    if (trim(text).empty())
        return Status::invalidSpec("empty faults= specification");
    for (const std::string &field : split(text, ',')) {
        const auto colon = field.find(':');
        if (colon == std::string::npos)
            return Status::invalidSpec("malformed faults field '" + field +
                                       "': expected key:value");
        const std::string key = trim(field.substr(0, colon));
        const std::string value = trim(field.substr(colon + 1));
        std::string why;
        if (key == "seed") {
            const long seed = parseNonNegative(value, 18);
            if (seed < 0)
                return Status::invalidSpec(
                    "malformed faults seed '" + value +
                    "': expected a non-negative integer");
            spec.seed = static_cast<uint64_t>(seed);
        } else if (key == "tiles" || key == "clusters") {
            if (!parseCategory(value, &spec.tilesPct, &spec.tiles, &why))
                return Status::invalidSpec("malformed faults " + key +
                                           " '" + value + "': " + why);
        } else if (key == "links") {
            if (!parseCategory(value, &spec.linksPct, &spec.links, &why))
                return Status::invalidSpec("malformed faults links '" +
                                           value + "': " + why);
        } else if (key == "slow") {
            if (!parseCategory(value, &spec.slowPct, &spec.slow, &why))
                return Status::invalidSpec("malformed faults slow '" +
                                           value + "': " + why);
        } else if (key == "factor") {
            const long factor = parseNonNegative(value, 3);
            if (factor < 2 || factor > 16)
                return Status::invalidSpec(
                    "malformed faults factor '" + value +
                    "': expected an integer in 2..16");
            spec.slowFactor = static_cast<int>(factor);
        } else {
            return Status::invalidSpec(
                "unknown faults key '" + key +
                "' (expected seed, tiles, links, slow, or factor)");
        }
    }
    return spec;
}

StatusOr<FaultMap>
FaultSpec::materialize(int num_clusters, const std::vector<int> &link_ids,
                       int num_links) const
{
    CSCHED_ASSERT(num_clusters >= 1, "machine must have clusters");
    FaultMap map;
    Rng rng(seed);

    // Category order (tiles, links, slow) is fixed so that the draws
    // are reproducible from the seed alone.
    std::vector<int> dead_tiles;
    if (tilesPct > 0) {
        std::vector<int> universe(num_clusters);
        for (int c = 0; c < num_clusters; ++c)
            universe[c] = c;
        dead_tiles = drawWithoutReplacement(
            std::move(universe), percentCount(num_clusters, tilesPct), rng);
    }
    for (int id : tiles) {
        if (id >= num_clusters)
            return Status::invalidSpec(
                "faults tile id " + std::to_string(id) +
                " out of range for a machine with " +
                std::to_string(num_clusters) + " tiles");
        dead_tiles.push_back(id);
    }

    std::vector<int> dead_links;
    if (wantsLinkFaults()) {
        if (link_ids.empty())
            return Status::invalidSpec(
                "faults links=... requires a mesh machine");
        if (linksPct > 0)
            dead_links = drawWithoutReplacement(
                link_ids,
                percentCount(static_cast<int>(link_ids.size()), linksPct),
                rng);
        for (int id : links) {
            if (std::find(link_ids.begin(), link_ids.end(), id) ==
                link_ids.end())
                return Status::invalidSpec(
                    "faults link id " + std::to_string(id) +
                    " is not a directed mesh link of this machine");
            dead_links.push_back(id);
        }
    }

    std::vector<int> slowed;
    if (slowPct > 0) {
        std::vector<int> universe(num_clusters);
        for (int c = 0; c < num_clusters; ++c)
            universe[c] = c;
        slowed = drawWithoutReplacement(
            std::move(universe), percentCount(num_clusters, slowPct), rng);
    }
    for (int id : slow) {
        if (id >= num_clusters)
            return Status::invalidSpec(
                "faults slow id " + std::to_string(id) +
                " out of range for a machine with " +
                std::to_string(num_clusters) + " tiles");
        slowed.push_back(id);
    }

    if (!dead_tiles.empty()) {
        map.deadCluster.assign(num_clusters, 0);
        for (int id : dead_tiles)
            map.deadCluster[id] = 1;
        int alive = 0;
        for (uint8_t dead : map.deadCluster)
            alive += dead == 0 ? 1 : 0;
        if (alive == 0)
            return Status::invalidSpec(
                "fault map kills every tile of the machine");
    }
    if (!dead_links.empty()) {
        map.deadLink.assign(num_links, 0);
        for (int id : dead_links)
            map.deadLink[id] = 1;
    }
    if (!slowed.empty()) {
        map.slowFactor.assign(num_clusters, 1);
        for (int id : slowed)
            map.slowFactor[id] = slowFactor;
    }
    return map;
}

FaultIndex
FaultIndex::build(FaultMap map, int num_clusters)
{
    FaultIndex index;
    index.alive.reserve(num_clusters);
    for (int c = 0; c < num_clusters; ++c)
        if (!map.clusterDead(c))
            index.alive.push_back(c);
    CSCHED_ASSERT(!index.alive.empty(), "fault map kills every cluster");
    index.remap.resize(num_clusters);
    const int num_alive = static_cast<int>(index.alive.size());
    for (int c = 0; c < num_clusters; ++c)
        index.remap[c] =
            map.clusterDead(c) ? index.alive[c % num_alive] : c;
    index.map = std::move(map);
    return index;
}

} // namespace csched
