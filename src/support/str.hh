/**
 * @file
 * String helpers: split/trim/join/case used by the pass-sequence parser
 * and the table printer, and the strict integer parser behind every
 * tool's integer flags.
 */

#ifndef CSCHED_SUPPORT_STR_HH
#define CSCHED_SUPPORT_STR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace csched {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(const std::string &text, char sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &text);

/** Upper-case ASCII letters in place-free fashion. */
std::string toUpper(const std::string &text);

/** Join @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * @p text as a non-negative decimal int: the whole string must be
 * digits (no sign, no whitespace) and at most INT_MAX; nullopt
 * otherwise.
 */
std::optional<int> parseNonNegativeInt(const std::string &text);

/** printf-style double formatting with @p decimals fraction digits. */
std::string formatDouble(double value, int decimals);

/**
 * 64-bit FNV-1a of @p text: stable across platforms and runs, unlike
 * std::hash.  Seeds every per-key deterministic draw (fault-injection
 * probability rules, retry-backoff jitter).
 */
uint64_t fnv1aHash(const std::string &text);

} // namespace csched

#endif // CSCHED_SUPPORT_STR_HH
