/**
 * @file
 * Minimal JSON support: a deterministic streaming writer (the format
 * every experiment report is serialized in) and a small recursive-
 * descent parser used to load reports back and to round-trip-test the
 * writer.  No external dependencies; numbers are written with
 * shortest-round-trip formatting so equal doubles always produce equal
 * bytes (the grid runner's determinism guarantee relies on this).
 */

#ifndef CSCHED_SUPPORT_JSON_HH
#define CSCHED_SUPPORT_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace csched {

/** Escape @p text for inclusion in a JSON string literal (no quotes). */
std::string escapeJson(const std::string &text);

/**
 * Collapse a JsonWriter's pretty-printed output to one line: drop
 * every newline plus its following indentation.  Literal newlines
 * never appear inside JSON string literals (escapeJson escapes them),
 * so this is a pure formatting transform.  Used wherever a document
 * must be a single line: journal records, worker pipe frames.
 */
std::string compactJson(const std::string &pretty);

/**
 * Streaming JSON writer producing deterministically formatted,
 * 2-space-indented output.  Usage:
 *
 *   JsonWriter w(out);
 *   w.beginObject();
 *   w.key("makespan").value(42);
 *   w.key("trace").beginArray(); ... w.endArray();
 *   w.endObject();
 *
 * Structural errors (value without key inside an object, unbalanced
 * end calls) are programming errors and panic.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out);
    ~JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next emission must be its value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(int number);
    JsonWriter &value(int64_t number);
    JsonWriter &value(uint64_t number);
    JsonWriter &value(double number);
    JsonWriter &value(bool flag);

    /** Whole-array convenience for assignment vectors. */
    JsonWriter &value(const std::vector<int> &numbers);

  private:
    enum class Scope { Object, Array };
    struct Level
    {
        Scope scope;
        int items = 0;
        bool keyPending = false;
    };

    void beforeItem();
    void raw(const std::string &text);
    void indent();

    std::ostream &out_;
    std::vector<Level> stack_;
};

/** Parsed JSON document node. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered key/value pairs. */
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Object member access; fatal when absent (malformed report). */
    const JsonValue &at(const std::string &name) const;

    int asInt() const;
    double asDouble() const;
};

/**
 * Parse a complete JSON document.  Returns std::nullopt on syntax
 * errors and, when @p error is non-null, stores position + reason.
 * Supports the full value grammar minus \uXXXX surrogate pairs
 * (non-BMP escapes), which the writer never emits.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

} // namespace csched

#endif // CSCHED_SUPPORT_JSON_HH
