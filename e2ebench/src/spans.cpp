#include "spans.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace e2e {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name, long op)
    : rec_(rec) {
  if (!rec_.enabled_) return;
  Span s;
  s.name = name;
  s.parent = rec_.current_;
  s.op = op;
  s.start_ms = ms_between(rec_.origin_, Clock::now());
  index_ = static_cast<int>(rec_.spans_.size());
  rec_.spans_.push_back(std::move(s));
  rec_.current_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = rec_.spans_[static_cast<std::size_t>(index_)];
  s.end_ms = ms_between(rec_.origin_, Clock::now());
  rec_.current_ = s.parent;
}

void SpanRecorder::write_tsv(std::ostream& out) const {
  out << "index\tparent\top\tname\tstart_ms\tend_ms\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.op << '\t' << s.name << '\t'
        << s.start_ms << '\t' << s.end_ms << '\n';
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    double lo = spans[i].start_ms, hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace e2e
