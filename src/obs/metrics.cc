#include "src/obs/metrics.h"

#include <cinttypes>

#include "src/common/check.h"
#include "src/common/format.h"

namespace macaron {
namespace obs {

const MetricsRegistry::Entry* MetricsRegistry::Find(std::string_view component,
                                                    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.component == component && e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(std::string_view component, std::string_view name) {
  if (const Entry* e = Find(component, name)) {
    MACARON_CHECK(e->kind == Kind::kCounter);
    return &counters_[e->index];
  }
  counters_.emplace_back();
  entries_.push_back(
      {std::string(component), std::string(name), Kind::kCounter, counters_.size() - 1});
  return &counters_.back();
}

StreamingStats* MetricsRegistry::stats(std::string_view component, std::string_view name) {
  if (const Entry* e = Find(component, name)) {
    MACARON_CHECK(e->kind == Kind::kStats);
    return &stats_[e->index];
  }
  stats_.emplace_back();
  entries_.push_back(
      {std::string(component), std::string(name), Kind::kStats, stats_.size() - 1});
  return &stats_.back();
}

Histogram* MetricsRegistry::histogram(std::string_view component, std::string_view name,
                                      std::vector<double> upper_bounds) {
  if (const Entry* e = Find(component, name)) {
    MACARON_CHECK(e->kind == Kind::kHistogram);
    return &histograms_[e->index];
  }
  histograms_.emplace_back(std::move(upper_bounds));
  entries_.push_back(
      {std::string(component), std::string(name), Kind::kHistogram, histograms_.size() - 1});
  return &histograms_.back();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const Entry& e : other.entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        counter(e.component, e.name)->Inc(other.counters_[e.index].value());
        break;
      case Kind::kStats:
        stats(e.component, e.name)->Merge(other.stats_[e.index]);
        break;
      case Kind::kHistogram: {
        const Histogram& src = other.histograms_[e.index];
        std::vector<double> bounds;
        bounds.reserve(src.NumBuckets() - 1);
        for (size_t b = 0; b + 1 < src.NumBuckets(); ++b) {
          bounds.push_back(src.UpperBound(b));
        }
        histogram(e.component, e.name, std::move(bounds))->Merge(src);
        break;
      }
    }
  }
}

uint64_t MetricsRegistry::CounterValue(std::string_view component, std::string_view name) const {
  const Entry* e = Find(component, name);
  if (e == nullptr || e->kind != Kind::kCounter) {
    return 0;
  }
  return counters_[e->index].value();
}

std::string MetricsRegistry::Json() const {
  std::string out = "{";
  // Components in first-registration order; within one, metrics in
  // registration order.
  std::vector<std::string_view> components;
  for (const Entry& e : entries_) {
    bool seen = false;
    for (std::string_view c : components) {
      if (c == e.component) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      components.push_back(e.component);
    }
  }
  for (size_t ci = 0; ci < components.size(); ++ci) {
    AppendF(&out, "%s\n  \"%.*s\": {", ci == 0 ? "" : ",",
            static_cast<int>(components[ci].size()), components[ci].data());
    bool first = true;
    for (const Entry& e : entries_) {
      if (e.component != components[ci]) {
        continue;
      }
      AppendF(&out, "%s\n    \"%s\": ", first ? "" : ",", e.name.c_str());
      first = false;
      switch (e.kind) {
        case Kind::kCounter:
          AppendF(&out, "%" PRIu64, counters_[e.index].value());
          break;
        case Kind::kStats: {
          const StreamingStats& s = stats_[e.index];
          AppendF(&out,
                  "{\"count\": %" PRIu64
                  ", \"mean\": %.17g, \"min\": %.17g, \"max\": %.17g, \"stddev\": %.17g}",
                  s.count(), s.mean(), s.count() == 0 ? 0.0 : s.min(),
                  s.count() == 0 ? 0.0 : s.max(), s.stddev());
          break;
        }
        case Kind::kHistogram: {
          const Histogram& h = histograms_[e.index];
          AppendF(&out, "{\"total\": %" PRIu64 ", \"buckets\": [", h.total());
          for (size_t b = 0; b < h.NumBuckets(); ++b) {
            if (b > 0) {
              out += ", ";
            }
            if (b + 1 < h.NumBuckets()) {
              AppendF(&out, "[%.17g, %" PRIu64 "]", h.UpperBound(b), h.BucketCount(b));
            } else {
              AppendF(&out, "[null, %" PRIu64 "]", h.BucketCount(b));
            }
          }
          out += "]}";
          break;
        }
      }
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace obs
}  // namespace macaron
