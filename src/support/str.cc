#include "support/str.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace csched {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string current;
    for (char ch : text) {
        if (ch == sep) {
            out.push_back(current);
            current.clear();
        } else {
            current.push_back(ch);
        }
    }
    out.push_back(current);
    return out;
}

std::string
trim(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::string
toUpper(const std::string &text)
{
    std::string out = text;
    for (char &ch : out)
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::optional<int>
parseNonNegativeInt(const std::string &text)
{
    // from_chars takes a leading '-', so demand a digit first.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    int value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

std::string
formatDouble(double value, int decimals)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

uint64_t
fnv1aHash(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace csched
