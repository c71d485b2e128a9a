#include "dist/protocol.hh"

#include <sstream>

#include "runner/json_report.hh"
#include "support/json.hh"

namespace csched {

namespace {

/** Shared skeleton: {"schema": ..., "type": ...}. */
void
writeEnvelope(JsonWriter &w, const char *type)
{
    w.key("schema").value(kDistSchema);
    w.key("type").value(type);
}

std::string
finish(std::ostringstream &out)
{
    return compactJson(out.str());
}

/** A non-negative integral counter out of a JSON number. */
bool
parseCounter(const JsonValue &value, uint64_t *out)
{
    if (value.kind != JsonValue::Kind::Number)
        return false;
    if (value.number < 0 ||
        value.number != static_cast<double>(
                            static_cast<uint64_t>(value.number)))
        return false;
    *out = static_cast<uint64_t>(value.number);
    return true;
}

Status
shapeError(const char *what)
{
    return Status::invalidSpec(std::string("dist frame: ") + what);
}

} // namespace

std::string
encodeDistHello()
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "hello");
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistWelcome(int capacity)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "welcome");
        w.key("capacity").value(capacity);
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistJob(uint64_t id, const JobSpec &spec,
              const JobPolicy &policy, int retries,
              const BaselineMemo *baselines)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "job");
        w.key("id").value(id);
        writeWorkerJobFields(w, spec, policy, retries, "", baselines);
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistResult(uint64_t id, const JobResult &result)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "result");
        w.key("id").value(id);
        w.key("result").beginObject();
        writeJobResultFields(w, result);
        w.endObject();
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistPing(uint64_t seq)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "ping");
        w.key("seq").value(seq);
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistPong(uint64_t seq)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "pong");
        w.key("seq").value(seq);
        w.endObject();
    }
    return finish(out);
}

StatusOr<DistMessage>
decodeDistMessage(const std::string &payload)
{
    std::string error;
    const auto parsed = parseJson(payload, &error);
    if (!parsed.has_value())
        return shapeError("not JSON");
    if (parsed->kind != JsonValue::Kind::Object)
        return shapeError("not a JSON object");

    const JsonValue *schema = parsed->find("schema");
    if (schema == nullptr ||
        schema->kind != JsonValue::Kind::String ||
        schema->string != kDistSchema)
        return Status::invalidSpec(
            std::string("dist frame: schema is not ") + kDistSchema);

    const JsonValue *type = parsed->find("type");
    if (type == nullptr || type->kind != JsonValue::Kind::String)
        return shapeError("missing 'type'");

    DistMessage msg;
    if (type->string == "hello") {
        msg.kind = DistMessage::Kind::Hello;
        return msg;
    }
    if (type->string == "welcome") {
        msg.kind = DistMessage::Kind::Welcome;
        const JsonValue *capacity = parsed->find("capacity");
        if (capacity == nullptr ||
            capacity->kind != JsonValue::Kind::Number ||
            capacity->asInt() < 1)
            return shapeError(
                "welcome capacity must be a positive integer");
        msg.capacity = capacity->asInt();
        return msg;
    }
    if (type->string == "ping" || type->string == "pong") {
        msg.kind = type->string == "ping" ? DistMessage::Kind::Ping
                                          : DistMessage::Kind::Pong;
        const JsonValue *seq = parsed->find("seq");
        if (seq == nullptr || !parseCounter(*seq, &msg.seq))
            return shapeError(
                "heartbeat seq must be a non-negative integer");
        return msg;
    }
    if (type->string == "job") {
        msg.kind = DistMessage::Kind::Job;
        const JsonValue *id = parsed->find("id");
        if (id == nullptr || !parseCounter(*id, &msg.id))
            return shapeError(
                "job id must be a non-negative integer");
        auto frame = decodeWorkerJobFields(*parsed);
        if (!frame.ok())
            return Status::invalidSpec("dist job frame: " +
                                       frame.status().message());
        msg.job = std::move(*frame);
        return msg;
    }
    if (type->string == "result") {
        msg.kind = DistMessage::Kind::Result;
        const JsonValue *id = parsed->find("id");
        if (id == nullptr || !parseCounter(*id, &msg.id))
            return shapeError(
                "result id must be a non-negative integer");
        const JsonValue *result = parsed->find("result");
        if (result == nullptr ||
            result->kind != JsonValue::Kind::Object)
            return shapeError("result payload must be an object");
        auto decoded = parseJobResultFields(*result);
        if (!decoded.has_value())
            return shapeError("result is missing job-result fields");
        msg.result = std::move(*decoded);
        return msg;
    }
    return Status::invalidSpec("dist frame: unknown type '" +
                               type->string + "'");
}

} // namespace csched
