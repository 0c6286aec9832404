#include "obs/trace.h"

#include <atomic>

#include "obs/json.h"

namespace hoyan::obs {
namespace {

// Small sequential thread ids (Chrome traces key rows on integer tids).
uint64_t currentThreadId() {
  static std::atomic<uint64_t> next{1};
  static thread_local uint64_t id = next.fetch_add(1);
  return id;
}

// The per-thread active-span stack, shared by all tracers in the process (in
// practice one per run). Only enabled spans participate.
thread_local int t_activeDepth = 0;

}  // namespace

Span& Span::operator=(Span&& other) noexcept {
  finish();
  tracer_ = other.tracer_;
  start_ = other.start_;
  finishedSeconds_ = other.finishedSeconds_;
  event_ = std::move(other.event_);
  other.tracer_ = nullptr;  // The moved-from span no longer owns the event.
  other.finishedSeconds_ = 0;
  return *this;
}

void Span::arg(std::string key, std::string value) {
  if (tracer_) event_.args.emplace_back(std::move(key), std::move(value));
}

double Span::seconds() const {
  if (finishedSeconds_ >= 0) return finishedSeconds_;
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void Span::finish() {
  if (finishedSeconds_ >= 0) return;
  const auto end = Clock::now();
  finishedSeconds_ = std::chrono::duration<double>(end - start_).count();
  if (!tracer_) return;
  --t_activeDepth;
  event_.durationMicros = tracer_->micronow(end) - event_.startMicros;
  tracer_->record(std::move(event_));
  tracer_ = nullptr;
}

Span Tracer::span(std::string name, std::string category) {
  Span span;
  span.start_ = Span::Clock::now();
  if (!enabled_) return span;
  span.tracer_ = this;
  span.event_.name = std::move(name);
  span.event_.category = std::move(category);
  span.event_.threadId = currentThreadId();
  span.event_.startMicros = micronow(span.start_);
  span.event_.depth = t_activeDepth++;
  return span;
}

uint64_t Tracer::micronow(Span::Clock::time_point at) const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(at - epoch_).count());
}

void Tracer::record(TraceEvent event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

size_t Tracer::eventCount() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::string Tracer::toChromeTraceJson() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& event = events_[i];
    if (i) out += ",";
    out += "{\"name\":\"" + jsonEscape(event.name) + "\",";
    out += "\"cat\":\"" + jsonEscape(event.category) + "\",";
    out += "\"ph\":\"X\",\"pid\":1,";
    out += "\"tid\":" + std::to_string(event.threadId) + ",";
    out += "\"ts\":" + std::to_string(event.startMicros) + ",";
    out += "\"dur\":" + std::to_string(event.durationMicros) + ",";
    out += "\"args\":{";
    out += "\"depth\":" + std::to_string(event.depth);
    for (const auto& [key, value] : event.args)
      out += ",\"" + jsonEscape(key) + "\":\"" + jsonEscape(value) + "\"";
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace hoyan::obs
