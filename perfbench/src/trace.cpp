#include "trace.hpp"

#include <algorithm>

namespace perfbench {

int Trace::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = since(t0_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Trace::close(int id) {
  // Spans close in reverse order of opening (ScopedSpan), so `id` is the
  // innermost open span; closing never throws, as it runs in destructors.
  spans_[static_cast<std::size_t>(id)].end_s = since(t0_);
  open_.erase(std::find(open_.begin(), open_.end(), id), open_.end());
}

double Trace::seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

std::vector<double> Trace::child_seconds(int id) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.parent == id) out.push_back(s.seconds());
  }
  return out;
}

khss::util::Json Trace::to_json() const {
  khss::util::Json arr = khss::util::Json::array();
  for (const Span& s : spans_) {
    khss::util::Json j = khss::util::Json::object();
    j.set("name", s.name);
    j.set("parent", s.parent);
    j.set("start_s", s.start_s);
    j.set("end_s", s.end_s);
    arr.push(std::move(j));
  }
  return arr;
}

}  // namespace perfbench
