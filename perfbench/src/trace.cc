#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::begin(const char* name, const char* layer, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_[id].start_us = now_us();  // last, so bookkeeping is not timed
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_us();
  Span& s = spans_[id];
  s.end_us = t;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace spans closed out of order");
  }
  open_.pop_back();
  if (s.parent >= 0) spans_[s.parent].child_us += s.end_us - s.start_us;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name, s.layer, s.start_us,
                 s.end_us - s.start_us, i, s.parent,
                 static_cast<long long>(s.request),
                 s.end_us - s.start_us - s.child_us);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              bool by_layer) {
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    SpanTotals& t = out[by_layer ? s.layer : s.name];
    t.layer = s.layer;
    ++t.count;
    t.total_ms += s.duration_ms();
    t.self_ms += s.self_ms();
  }
  return out;
}

}  // namespace perfbench
