#include "support/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/logging.hh"

namespace csched {

// ---- escaping ------------------------------------------------------

std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
compactJson(const std::string &pretty)
{
    std::string out;
    out.reserve(pretty.size());
    for (size_t k = 0; k < pretty.size(); ++k) {
        if (pretty[k] != '\n') {
            out += pretty[k];
            continue;
        }
        while (k + 1 < pretty.size() && pretty[k + 1] == ' ')
            ++k;
    }
    return out;
}

namespace {

/** Shortest text that parses back to exactly @p number. */
std::string
formatNumber(double number)
{
    if (!std::isfinite(number))
        return "null";  // JSON has no Inf/NaN; reports never need them
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof buf, number);
    CSCHED_ASSERT(res.ec == std::errc(), "to_chars failed");
    return std::string(buf, res.ptr);
}

} // namespace

// ---- writer --------------------------------------------------------

JsonWriter::JsonWriter(std::ostream &out) : out_(out) {}

JsonWriter::~JsonWriter()
{
    // Unbalanced begin/end is a bug in the caller, but destructors
    // must not panic during unwinding; the output is simply truncated.
}

void
JsonWriter::indent()
{
    out_ << "\n";
    for (size_t k = 0; k < stack_.size(); ++k)
        out_ << "  ";
}

void
JsonWriter::beforeItem()
{
    if (stack_.empty())
        return;
    Level &top = stack_.back();
    if (top.scope == Scope::Object) {
        CSCHED_ASSERT(top.keyPending,
                      "JSON object value emitted without a key");
        top.keyPending = false;
        return;
    }
    if (top.items > 0)
        out_ << ",";
    ++top.items;
    indent();
}

void
JsonWriter::raw(const std::string &text)
{
    beforeItem();
    out_ << text;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeItem();
    out_ << "{";
    stack_.push_back({Scope::Object});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    CSCHED_ASSERT(!stack_.empty() &&
                      stack_.back().scope == Scope::Object &&
                      !stack_.back().keyPending,
                  "unbalanced endObject");
    const bool empty = stack_.back().items == 0;
    stack_.pop_back();
    if (!empty)
        indent();
    out_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeItem();
    out_ << "[";
    stack_.push_back({Scope::Array});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    CSCHED_ASSERT(!stack_.empty() &&
                      stack_.back().scope == Scope::Array,
                  "unbalanced endArray");
    const bool empty = stack_.back().items == 0;
    stack_.pop_back();
    if (!empty)
        indent();
    out_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    CSCHED_ASSERT(!stack_.empty() &&
                      stack_.back().scope == Scope::Object &&
                      !stack_.back().keyPending,
                  "JSON key outside an object or after another key");
    Level &top = stack_.back();
    if (top.items > 0)
        out_ << ",";
    ++top.items;
    indent();
    out_ << "\"" << escapeJson(name) << "\": ";
    top.keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    raw("\"" + escapeJson(text) + "\"");
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(int number)
{
    raw(std::to_string(number));
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t number)
{
    raw(std::to_string(number));
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t number)
{
    raw(std::to_string(number));
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    raw(formatNumber(number));
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    raw(flag ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(const std::vector<int> &numbers)
{
    // Compact one-line form: assignment vectors would otherwise
    // dominate the report line count.
    beforeItem();
    out_ << "[";
    for (size_t k = 0; k < numbers.size(); ++k)
        out_ << (k > 0 ? ", " : "") << numbers[k];
    out_ << "]";
    return *this;
}

// ---- parsed-value accessors ----------------------------------------

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, value] : object)
        if (key == name)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &name) const
{
    const JsonValue *found = find(name);
    if (found == nullptr)
        CSCHED_FATAL("JSON object has no member '", name, "'");
    return *found;
}

int
JsonValue::asInt() const
{
    CSCHED_ASSERT(kind == Kind::Number, "JSON value is not a number");
    return static_cast<int>(number);
}

double
JsonValue::asDouble() const
{
    CSCHED_ASSERT(kind == Kind::Number, "JSON value is not a number");
    return number;
}

// ---- parser --------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<JsonValue>
    parse(std::string *error)
    {
        JsonValue value;
        if (!parseValue(value) || (skipSpace(), pos_ != text_.size())) {
            if (!failed_)
                fail("trailing characters after document");
            if (error != nullptr)
                *error = error_;
            return std::nullopt;
        }
        return value;
    }

  private:
    bool
    fail(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = "JSON error at offset " + std::to_string(pos_) +
                     ": " + why;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char expected)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != expected)
            return fail(std::string("expected '") + expected + "'");
        ++pos_;
        return true;
    }

    bool
    parseLiteral(const char *literal, JsonValue &out, JsonValue::Kind kind,
                 bool boolean)
    {
        const size_t len = std::string(literal).size();
        if (text_.compare(pos_, len, literal) != 0)
            return fail(std::string("expected '") + literal + "'");
        pos_ += len;
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode (BMP only; the writer never emits
                // surrogate pairs).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        double number = 0.0;
        const auto res = std::from_chars(text_.data() + start,
                                         text_.data() + pos_, number);
        if (res.ec != std::errc() ||
            res.ptr != text_.data() + pos_)
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        out.number = number;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipSpace();
                std::string key;
                JsonValue value;
                if (!parseString(key) || !consume(':') ||
                    !parseValue(value))
                    return false;
                out.object.emplace_back(std::move(key),
                                        std::move(value));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue value;
                if (!parseValue(value))
                    return false;
                out.array.push_back(std::move(value));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == 't')
            return parseLiteral("true", out, JsonValue::Kind::Bool,
                                true);
        if (c == 'f')
            return parseLiteral("false", out, JsonValue::Kind::Bool,
                                false);
        if (c == 'n')
            return parseLiteral("null", out, JsonValue::Kind::Null,
                                false);
        return parseNumber(out);
    }

    const std::string &text_;
    size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return Parser(text).parse(error);
}

} // namespace csched
