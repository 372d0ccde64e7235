#include "trace.hpp"

#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

namespace isomap::e2e {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::open(const char* layer, const char* name, int round) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.start_ms = ms_between(origin_, Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.round = round;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_ms = ms_between(origin_, Clock::now()) - s.start_ms;
  open_.pop_back();  // ScopedSpan closes in LIFO order: id is the top.
}

int Tracer::phase(int parent, const char* layer, const std::string& name,
                  double ms) {
  if (!enabled_ || parent < 0) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.dur_ms = ms;
  s.parent = parent;
  s.round = spans_[static_cast<std::size_t>(parent)].round;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<LayerRow> Tracer::table() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  std::vector<char> in_round(spans_.size(), 0);
  // Parents always precede their children, so one forward pass resolves
  // round membership and sums each span's children.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool parent_in_round =
        s.parent >= 0 && in_round[static_cast<std::size_t>(s.parent)];
    in_round[i] = s.name == "round" || parent_in_round;
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.dur_ms;
  }
  std::vector<LayerRow> rows;
  // Spans of one name inside and outside rounds (a set-up sampling pass
  // and a per-round one) get separate rows.
  std::map<std::tuple<std::string, std::string, bool>, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto key = std::make_tuple(s.layer, s.name, in_round[i] != 0);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, rows.size()).first;
      LayerRow row;
      row.layer = s.layer;
      row.name = s.name;
      row.in_round = in_round[i] != 0;
      rows.push_back(std::move(row));
    }
    LayerRow& row = rows[it->second];
    ++row.count;
    row.total_ms += s.dur_ms;
    row.self_ms += s.dur_ms - child_ms[i];
  }
  return rows;
}

long long Tracer::round_count() const {
  long long n = 0;
  for (const Span& s : spans_) n += s.name == "round" ? 1 : 0;
  return n;
}

double Tracer::round_total_ms() const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == "round") total += s.dur_ms;
  return total;
}

double Tracer::self_ms_per_round() const {
  const long long rounds = round_count();
  if (rounds == 0) return 0.0;
  double self = 0.0;
  for (const LayerRow& row : table())
    if (row.in_round) self += row.self_ms;
  return self / static_cast<double>(rounds);
}

JsonValue Tracer::to_json(int max_round, double untraced_round_p50_ms) const {
  JsonValue out = JsonValue::object();
  JsonValue spans = JsonValue::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.round > max_round) continue;
    JsonValue j = JsonValue::object();
    j["id"] = i;
    j["layer"] = s.layer;
    j["name"] = s.name;
    j["round"] = s.round;
    j["parent"] = s.parent;
    j["start_ms"] = s.start_ms >= 0.0 ? JsonValue(s.start_ms) : JsonValue();
    j["dur_ms"] = s.dur_ms;
    spans.push_back(std::move(j));
  }
  const long long rounds = round_count();
  const double round_ms = round_total_ms();
  JsonValue layers = JsonValue::array();
  for (const LayerRow& row : table()) {
    JsonValue j = JsonValue::object();
    j["layer"] = row.layer;
    j["name"] = row.name;
    j["count"] = row.count;
    j["total_ms"] = row.total_ms;
    j["self_ms"] = row.self_ms;
    if (row.in_round && rounds > 0) {
      j["self_ms_per_round"] = row.self_ms / static_cast<double>(rounds);
      j["share_of_round"] = round_ms > 0.0 ? row.self_ms / round_ms : 0.0;
    }
    layers.push_back(std::move(j));
  }
  out["self_ms_per_round"] = self_ms_per_round();
  out["untraced_round_ms_p50"] = untraced_round_p50_ms;
  out["span_rounds_kept"] = max_round;
  out["spans"] = std::move(spans);
  out["layers"] = std::move(layers);
  return out;
}

void print_layer_table(const Tracer& tracer, const std::string& title,
                       double untraced_round_p50_ms) {
  const long long rounds = tracer.round_count();
  const double round_ms = tracer.round_total_ms();
  std::printf("\nper-layer spans: %s (%lld traced rounds)\n", title.c_str(),
              rounds);
  std::printf("%-11s %-26s %8s %12s %12s %12s %7s\n", "layer", "span", "count",
              "total_ms", "self_ms", "self/round", "share");
  for (const LayerRow& row : tracer.table()) {
    std::printf("%-11s %-26s %8lld %12.3f %12.3f", row.layer.c_str(),
                row.name.c_str(), row.count, row.total_ms, row.self_ms);
    if (row.in_round && rounds > 0) {
      std::printf(" %12.4f %6.1f%%\n",
                  row.self_ms / static_cast<double>(rounds),
                  round_ms > 0.0 ? 100.0 * row.self_ms / round_ms : 0.0);
    } else {
      std::printf(" %12s %7s\n", "-", "-");
    }
  }
  std::printf("self times inside rounds: %.4f ms per round; untraced "
              "round_ms_p50 %.4f ms\n",
              tracer.self_ms_per_round(), untraced_round_p50_ms);
  std::fflush(stdout);
}

}  // namespace isomap::e2e
