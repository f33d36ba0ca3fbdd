#include "telemetry/metrics.h"

#include <cstdio>

namespace moptel {

namespace {

void AppendU64(std::string* out, uint64_t v) { out->append(std::to_string(v)); }

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

}  // namespace

uint64_t Histogram::LaneCount(size_t lane) const {
  const Shard& s = shards_[lane];
  uint64_t n = s.zero_or_less;
  for (uint32_t c : s.counts) n += c;
  return n;
}

// ---- Histogram ----

Histogram::Histogram(size_t lanes, double rel_err)
    : rel_err_(rel_err), rule_(rel_err), shards_(lanes) {
  // Preallocate the whole clamp span. Values below the clamp floor go to the
  // zero bucket (LogQuantile::Add semantics), so lo_index_ = IndexOf(min) is
  // a safe floor for every bucketable input; the clamp in Observe() caps the
  // top at hi_index_.
  lo_index_ = rule_.IndexOf(moputil::kLogQuantileMin);
  hi_index_ = rule_.IndexOf(moputil::kLogQuantileMax);
  for (Shard& s : shards_) {
    s.counts.assign(static_cast<size_t>(hi_index_ - lo_index_) + 1, 0);
  }
}

moputil::LogQuantile Histogram::Merged() const {
  moputil::LogQuantile::State st;
  st.lo_index = lo_index_;
  st.counts.assign(bucket_span(), 0);
  for (const Shard& s : shards_) {
    st.zero_or_less += s.zero_or_less;
    for (size_t i = 0; i < s.counts.size(); ++i) {
      st.counts[i] += s.counts[i];
    }
  }
  st.total = st.zero_or_less;
  for (uint64_t c : st.counts) st.total += c;
  moputil::LogQuantile out(rel_err_);
  out.Restore(std::move(st));
  return out;
}

moputil::LogQuantile Histogram::LaneSketch(size_t lane) const {
  const Shard& s = shards_[lane];
  moputil::LogQuantile::State st;
  st.total = LaneCount(lane);
  st.zero_or_less = s.zero_or_less;
  st.lo_index = lo_index_;
  st.counts = s.counts;
  moputil::LogQuantile out(rel_err_);
  out.Restore(std::move(st));
  return out;
}

uint64_t Histogram::Count() const {
  uint64_t n = 0;
  for (size_t l = 0; l < shards_.size(); ++l) n += LaneCount(l);
  return n;
}

double Histogram::Sum() const {
  double x = 0;
  for (const Shard& s : shards_) x += s.sum;
  return x;
}

double Histogram::LaneQuantile(size_t lane, double percentile) const {
  return LaneSketch(lane).Quantile(percentile);
}

// ---- Registry ----

struct Registry::Entry {
  enum class Kind { kCounter, kGauge, kHistogram, kExtCounter, kExtLaneCounter, kExtGauge };

  Kind kind;
  std::string name;
  std::string help;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  std::function<uint64_t()> read;
  std::function<uint64_t(size_t)> lane_read;

  uint64_t MergedScalar(size_t lanes) const {
    switch (kind) {
      case Kind::kCounter:
        return counter->Value();
      case Kind::kGauge:
        return gauge->Value();
      case Kind::kExtCounter:
      case Kind::kExtGauge:
        return read();
      case Kind::kExtLaneCounter: {
        uint64_t sum = 0;
        for (size_t l = 0; l < lanes; ++l) sum += lane_read(l);
        return sum;
      }
      case Kind::kHistogram:
        return histogram->Count();
    }
    return 0;
  }
};

Registry::Registry(size_t lanes) : lanes_(lanes == 0 ? 1 : lanes) {}

Registry::~Registry() = default;

Counter* Registry::AddCounter(std::string name, std::string help) {
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::kCounter;
  e->name = std::move(name);
  e->help = std::move(help);
  e->counter = std::make_unique<Counter>(lanes_);
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* Registry::AddGauge(std::string name, std::string help, GaugeMerge merge) {
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::kGauge;
  e->name = std::move(name);
  e->help = std::move(help);
  e->gauge = std::make_unique<Gauge>(lanes_, merge);
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* Registry::AddHistogram(std::string name, std::string help, double rel_err) {
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::kHistogram;
  e->name = std::move(name);
  e->help = std::move(help);
  e->histogram = std::make_unique<Histogram>(lanes_, rel_err);
  Histogram* out = e->histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

void Registry::AddExternalCounter(std::string name, std::string help,
                                  std::function<uint64_t()> read) {
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::kExtCounter;
  e->name = std::move(name);
  e->help = std::move(help);
  e->read = std::move(read);
  entries_.push_back(std::move(e));
}

void Registry::AddExternalLaneCounter(std::string name, std::string help,
                                      std::function<uint64_t(size_t)> read) {
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::kExtLaneCounter;
  e->name = std::move(name);
  e->help = std::move(help);
  e->lane_read = std::move(read);
  entries_.push_back(std::move(e));
}

void Registry::AddExternalGauge(std::string name, std::string help,
                                std::function<uint64_t()> read) {
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::kExtGauge;
  e->name = std::move(name);
  e->help = std::move(help);
  e->read = std::move(read);
  entries_.push_back(std::move(e));
}

bool Registry::CounterValue(std::string_view name, uint64_t* out) const {
  for (const auto& e : entries_) {
    if (e->name != name) continue;
    if (e->kind == Entry::Kind::kCounter || e->kind == Entry::Kind::kExtCounter ||
        e->kind == Entry::Kind::kExtLaneCounter) {
      *out = e->MergedScalar(lanes_);
      return true;
    }
  }
  return false;
}

bool Registry::GaugeValue(std::string_view name, uint64_t* out) const {
  for (const auto& e : entries_) {
    if (e->name != name) continue;
    if (e->kind == Entry::Kind::kGauge || e->kind == Entry::Kind::kExtGauge) {
      *out = e->MergedScalar(lanes_);
      return true;
    }
  }
  return false;
}

const Histogram* Registry::FindHistogram(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e->kind == Entry::Kind::kHistogram && e->name == name) {
      return e->histogram.get();
    }
  }
  return nullptr;
}

std::vector<MetricSample> Registry::Sample(
    const std::function<bool(std::string_view)>& filter) const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (filter && !filter(e->name)) continue;
    MetricSample s;
    s.name = e->name;
    switch (e->kind) {
      case Entry::Kind::kCounter:
      case Entry::Kind::kExtCounter:
      case Entry::Kind::kExtLaneCounter:
        s.kind = MetricSample::Kind::kCounter;
        s.value = e->MergedScalar(lanes_);
        break;
      case Entry::Kind::kGauge:
      case Entry::Kind::kExtGauge:
        s.kind = MetricSample::Kind::kGauge;
        s.merge = e->kind == Entry::Kind::kGauge ? e->gauge->merge()
                                                 : GaugeMerge::kSum;
        s.value = e->MergedScalar(lanes_);
        break;
      case Entry::Kind::kHistogram: {
        s.kind = MetricSample::Kind::kHistogram;
        s.rel_err = e->histogram->rel_err();
        s.sum = e->histogram->Sum();
        moputil::LogQuantile::State st = e->histogram->Merged().state();
        s.zero_or_less = st.zero_or_less;
        for (size_t i = 0; i < st.counts.size(); ++i) {
          if (st.counts[i] == 0) continue;
          s.buckets.emplace_back(st.lo_index + static_cast<int32_t>(i),
                                 static_cast<uint64_t>(st.counts[i]));
        }
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Registry::RenderText() const {
  std::string out;
  out.reserve(entries_.size() * 96);
  for (const auto& e : entries_) {
    out += "# HELP " + e->name + " " + e->help + "\n";
    switch (e->kind) {
      case Entry::Kind::kCounter:
      case Entry::Kind::kExtCounter:
      case Entry::Kind::kExtLaneCounter: {
        out += "# TYPE " + e->name + " counter\n";
        out += e->name + " ";
        AppendU64(&out, e->MergedScalar(lanes_));
        out += "\n";
        if (lanes_ > 1 && e->kind != Entry::Kind::kExtCounter) {
          for (size_t l = 0; l < lanes_; ++l) {
            uint64_t v = e->kind == Entry::Kind::kCounter ? e->counter->LaneValue(l)
                                                          : e->lane_read(l);
            out += e->name + "{lane=\"" + std::to_string(l) + "\"} ";
            AppendU64(&out, v);
            out += "\n";
          }
        }
        break;
      }
      case Entry::Kind::kGauge:
      case Entry::Kind::kExtGauge: {
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " ";
        AppendU64(&out, e->MergedScalar(lanes_));
        out += "\n";
        if (lanes_ > 1 && e->kind == Entry::Kind::kGauge) {
          for (size_t l = 0; l < lanes_; ++l) {
            out += e->name + "{lane=\"" + std::to_string(l) + "\"} ";
            AppendU64(&out, e->gauge->LaneValue(l));
            out += "\n";
          }
        }
        break;
      }
      case Entry::Kind::kHistogram: {
        out += "# TYPE " + e->name + " summary\n";
        uint64_t count = e->histogram->Count();
        if (count > 0) {
          moputil::LogQuantile merged = e->histogram->Merged();
          for (double q : {0.5, 0.95, 0.99}) {
            out += e->name + "{quantile=\"";
            AppendDouble(&out, q);
            out += "\"} ";
            AppendDouble(&out, merged.Quantile(q * 100.0));
            out += "\n";
          }
        }
        out += e->name + "_sum ";
        AppendDouble(&out, e->histogram->Sum());
        out += "\n";
        out += e->name + "_count ";
        AppendU64(&out, count);
        out += "\n";
        if (lanes_ > 1) {
          for (size_t l = 0; l < lanes_; ++l) {
            out += e->name + "_count{lane=\"" + std::to_string(l) + "\"} ";
            AppendU64(&out, e->histogram->LaneCount(l));
            out += "\n";
          }
        }
        break;
      }
    }
  }
  return out;
}

std::string Registry::RenderJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + e->name + "\":{";
    switch (e->kind) {
      case Entry::Kind::kCounter:
      case Entry::Kind::kExtCounter:
      case Entry::Kind::kExtLaneCounter: {
        out += "\"type\":\"counter\",\"value\":";
        AppendU64(&out, e->MergedScalar(lanes_));
        if (lanes_ > 1 && e->kind != Entry::Kind::kExtCounter) {
          out += ",\"lanes\":[";
          for (size_t l = 0; l < lanes_; ++l) {
            if (l) out += ",";
            AppendU64(&out, e->kind == Entry::Kind::kCounter ? e->counter->LaneValue(l)
                                                             : e->lane_read(l));
          }
          out += "]";
        }
        break;
      }
      case Entry::Kind::kGauge:
      case Entry::Kind::kExtGauge: {
        out += "\"type\":\"gauge\",\"value\":";
        AppendU64(&out, e->MergedScalar(lanes_));
        if (lanes_ > 1 && e->kind == Entry::Kind::kGauge) {
          out += ",\"lanes\":[";
          for (size_t l = 0; l < lanes_; ++l) {
            if (l) out += ",";
            AppendU64(&out, e->gauge->LaneValue(l));
          }
          out += "]";
        }
        break;
      }
      case Entry::Kind::kHistogram: {
        uint64_t count = e->histogram->Count();
        out += "\"type\":\"histogram\",\"count\":";
        AppendU64(&out, count);
        out += ",\"sum\":";
        AppendDouble(&out, e->histogram->Sum());
        if (count > 0) {
          moputil::LogQuantile merged = e->histogram->Merged();
          out += ",\"p50\":";
          AppendDouble(&out, merged.Quantile(50.0));
          out += ",\"p95\":";
          AppendDouble(&out, merged.Quantile(95.0));
          out += ",\"p99\":";
          AppendDouble(&out, merged.Quantile(99.0));
        }
        break;
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace moptel
