#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>

#include "perfbench.hpp"

namespace perfbench {

const WorkloadSpec* find_workload(std::string_view name) {
  // Sizes: with flags off, Apex Beam pays ~25 us of simulated broker RTT
  // per output record, so 50k records already cost ~3.6 s per pass; with
  // the mitigations on it is CPU-bound, and at P2 each run also pays the
  // start-up skew of two parallel subtasks, so 200k records keep that
  // fixed cost small against the span.
  static const std::array<WorkloadSpec, 2> kWorkloads{{
      {.name = "paper-p1",
       .parallelism = 1,
       .input_partitions = 1,
       .closed_records = 50'000},
      {.name = "mitigated-p2",
       .parallelism = 2,
       .input_partitions = 2,
       .fuse_stages = true,
       .elide_coders = true,
       .async_sinks = true,
       .closed_records = 200'000},
  }};
  for (const auto& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- trace --------------------------------------------------------------------

int Trace::begin(std::string name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{.name = std::move(name),
                        .start_s = now_s(),
                        .parent = parent,
                        .run = run_});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now_s();
}

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Trace::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) +
           ",\"name\":" + json_string(span.name) +
           ",\"start_s\":" + format_number(span.start_s) +
           ",\"end_s\":" + format_number(span.end_s) +
           ",\"parent\":" + std::to_string(span.parent) +
           ",\"run\":" + std::to_string(span.run) + "}";
  }
  return out + "]\n";
}

// --- statistics ---------------------------------------------------------------

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double highest_supported_quantile(std::size_t samples) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

void MicrosHistogram::add(std::int64_t us) {
  if (counts_.empty()) counts_.assign(kMaxUs + 1, 0);
  const auto index =
      static_cast<std::size_t>(std::clamp<std::int64_t>(us, 0, kMaxUs));
  ++counts_[index];
  ++total_;
}

double MicrosHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t us = 0; us < counts_.size(); ++us) {
    seen += counts_[us];
    if (seen >= rank) return static_cast<double>(us);
  }
  return static_cast<double>(kMaxUs);
}

// --- output verification ------------------------------------------------------

namespace {

std::uint64_t hash_value(std::string_view value) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, then a splitmix finish
  for (const unsigned char c : value) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

void Digest::add(std::string_view value) {
  ++count;
  sum += hash_value(value);
}

std::map<QueryId, Digest> reference_digests(
    const std::vector<std::string>& lines, std::uint64_t seed) {
  std::map<QueryId, Digest> digests;
  for (const std::string& line : lines) {
    digests[QueryId::kIdentity].add(dsps::workload::identity_of(line));
    if (dsps::workload::sample_keep(line, seed)) {
      digests[QueryId::kSample].add(line);
    }
    digests[QueryId::kProjection].add(dsps::workload::projection_of(line));
    if (dsps::workload::grep_matches(line)) digests[QueryId::kGrep].add(line);
  }
  return digests;
}

// --- results ------------------------------------------------------------------

Metric timing_metric(std::string name, const std::vector<double>& samples,
                     std::string unit) {
  Metric metric{.name = std::move(name),
                .value = median(samples),
                .unit = std::move(unit),
                .samples = samples.size()};
  metric.high_q = highest_supported_quantile(samples.size());
  if (metric.high_q > 0.0) metric.high_value = quantile(samples, metric.high_q);
  return metric;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace perfbench
