#include "serve/result_cache.hh"

namespace csched {

std::string
cacheKey(const ServeRequest &request)
{
    // '|' cannot appear in workload/machine names or algorithm text,
    // so the join is unambiguous.
    return request.workload + "|" + request.machine + "|" +
           request.algorithm + "|" +
           (request.computeSpeedup ? "speedup" : "plain");
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

ResultCache::Ticket
ResultCache::begin(const std::string &key)
{
    Ticket ticket;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto entry = entries_.find(key);
    if (entry != entries_.end()) {
        ticket.cached = true;
        ticket.result = entry->second.first;
        touch(key);
        return ticket;
    }
    const auto flight = flights_.find(key);
    if (flight != flights_.end()) {
        ticket.coalesced = true;
        ticket.flight = flight->second;
        return ticket;
    }
    ticket.flight = std::make_shared<Flight>();
    flights_.emplace(key, ticket.flight);
    return ticket;
}

void
ResultCache::finish(const std::string &key,
                    const std::shared_ptr<Flight> &flight,
                    const JobResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flights_.erase(key);
        if (capacity_ > 0 && result.ok() &&
            entries_.find(key) == entries_.end()) {
            order_.push_front(key);
            entries_.emplace(key,
                             std::make_pair(result, order_.begin()));
            while (entries_.size() > capacity_) {
                entries_.erase(order_.back());
                order_.pop_back();
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->result = result;
        flight->finished = true;
    }
    flight->done.notify_all();
}

bool
ResultCache::waitFollower(
    const std::shared_ptr<Flight> &flight,
    std::chrono::steady_clock::time_point deadline, JobResult *out)
{
    std::unique_lock<std::mutex> lock(flight->mutex);
    if (!flight->done.wait_until(lock, deadline,
                                 [&] { return flight->finished; }))
        return false;
    *out = flight->result;
    return true;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
ResultCache::touch(const std::string &key)
{
    const auto entry = entries_.find(key);
    order_.erase(entry->second.second);
    order_.push_front(key);
    entry->second.second = order_.begin();
}

} // namespace csched
