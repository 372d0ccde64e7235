#include "obs/node_telemetry.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace isomap::obs {

JsonValue TelemetryEnergyModel::to_json() const {
  JsonValue v = JsonValue::object();
  v["tx_j_per_byte"] = JsonValue(tx_j_per_byte);
  v["rx_j_per_byte"] = JsonValue(rx_j_per_byte);
  v["j_per_op"] = JsonValue(j_per_op);
  return v;
}

namespace {

JsonValue array_of(const std::vector<double>& values) {
  JsonValue v = JsonValue::array();
  for (double x : values) v.push_back(JsonValue(x));
  return v;
}

JsonValue array_of(const std::vector<int>& values) {
  JsonValue v = JsonValue::array();
  for (int x : values) v.push_back(JsonValue(x));
  return v;
}

JsonValue array_of(const std::vector<long long>& values) {
  JsonValue v = JsonValue::array();
  for (long long x : values) v.push_back(JsonValue(static_cast<double>(x)));
  return v;
}

}  // namespace

JsonValue NodeTelemetrySnapshot::to_json() const {
  JsonValue v = JsonValue::object();
  v["nodes"] = JsonValue(size());
  JsonValue& per_node = v["per_node"];
  per_node = JsonValue::object();
  per_node["tx_bytes"] = array_of(tx_bytes);
  per_node["rx_bytes"] = array_of(rx_bytes);
  per_node["ops"] = array_of(ops);
  per_node["hops"] = array_of(hops);
  per_node["generated"] = array_of(generated);
  per_node["delivered"] = array_of(delivered);
  per_node["filtered"] = array_of(filtered);
  per_node["lost_channel"] = array_of(lost_channel);
  per_node["lost_crash"] = array_of(lost_crash);
  per_node["relayed"] = array_of(relayed);
  per_node["retries"] = array_of(retries);
  per_node["drops"] = array_of(drops);
  per_node["dup_rx"] = array_of(dup_rx);
  per_node["corrupt_rx"] = array_of(corrupt_rx);
  per_node["arq_timeouts"] = array_of(arq_timeouts);
  JsonValue& lanes = v["per_phase"];
  lanes = JsonValue::object();
  for (const PhaseLane& lane : phases) {
    JsonValue entry = JsonValue::object();
    entry["tx_bytes"] = array_of(lane.tx_bytes);
    entry["rx_bytes"] = array_of(lane.rx_bytes);
    lanes[lane.phase] = std::move(entry);
  }
  v["energy_model"] = energy.to_json();
  return v;
}

JsonValue NodeTelemetrySummary::to_json() const {
  JsonValue v = JsonValue::object();
  v["nodes"] = JsonValue(nodes);
  v["active_nodes"] = JsonValue(active_nodes);
  JsonValue& hot = v["hotspots"];
  hot = JsonValue::array();
  for (int id : hotspots) hot.push_back(JsonValue(id));
  v["max_tx_bytes"] = JsonValue(max_tx_bytes);
  v["mean_tx_bytes"] = JsonValue(mean_tx_bytes);
  v["energy_gini"] = JsonValue(energy_gini);
  v["energy_max_over_mean"] = JsonValue(energy_max_over_mean);
  v["max_hops"] = JsonValue(max_hops);
  return v;
}

NodeTelemetry::NodeTelemetry(int num_nodes) {
  if (num_nodes < 0)
    throw std::invalid_argument("NodeTelemetry: negative size");
  const auto n = static_cast<std::size_t>(num_nodes);
  tx_bytes_.assign(n, 0.0);
  rx_bytes_.assign(n, 0.0);
  ops_.assign(n, 0.0);
  hops_.assign(n, -1);
  generated_.assign(n, 0);
  delivered_.assign(n, 0);
  filtered_.assign(n, 0);
  lost_channel_.assign(n, 0);
  lost_crash_.assign(n, 0);
  relayed_.assign(n, 0);
  retries_.assign(n, 0);
  drops_.assign(n, 0);
  dup_rx_.assign(n, 0);
  corrupt_rx_.assign(n, 0);
  arq_timeouts_.assign(n, 0);
}

NodeTelemetry::Lane& NodeTelemetry::lane_slow(const char* phase) {
  for (const auto& l : lanes_) {
    if (std::strcmp(l->name.c_str(), phase) == 0) {
      // Same label text reached through a different pointer (e.g. a
      // string literal duplicated across translation units): re-key the
      // cache on the pointer we are now seeing.
      l->key = phase;
      cached_ = l.get();
      return *l;
    }
  }
  auto fresh = std::make_unique<Lane>();
  fresh->key = phase;
  fresh->name = phase;
  fresh->tx.assign(tx_bytes_.size(), 0.0);
  fresh->rx.assign(tx_bytes_.size(), 0.0);
  lanes_.push_back(std::move(fresh));
  cached_ = lanes_.back().get();
  return *cached_;
}

const std::vector<double>* NodeTelemetry::phase_tx(
    const std::string& phase) const {
  for (const auto& l : lanes_)
    if (l->name == phase) return &l->tx;
  return nullptr;
}

const std::vector<double>* NodeTelemetry::phase_rx(
    const std::string& phase) const {
  for (const auto& l : lanes_)
    if (l->name == phase) return &l->rx;
  return nullptr;
}

std::vector<std::string> NodeTelemetry::phase_names() const {
  std::vector<std::string> names;
  names.reserve(lanes_.size());
  for (const auto& l : lanes_) names.push_back(l->name);
  std::sort(names.begin(), names.end());
  return names;
}

double NodeTelemetry::total_tx_bytes() const {
  double total = 0.0;
  for (double b : tx_bytes_) total += b;
  return total;
}

double NodeTelemetry::total_rx_bytes() const {
  double total = 0.0;
  for (double b : rx_bytes_) total += b;
  return total;
}

double NodeTelemetry::total_ops() const {
  double total = 0.0;
  for (double o : ops_) total += o;
  return total;
}

NodeTelemetrySnapshot NodeTelemetry::snapshot() const {
  NodeTelemetrySnapshot s;
  s.tx_bytes = tx_bytes_;
  s.rx_bytes = rx_bytes_;
  s.ops = ops_;
  s.hops = hops_;
  s.generated = generated_;
  s.delivered = delivered_;
  s.filtered = filtered_;
  s.lost_channel = lost_channel_;
  s.lost_crash = lost_crash_;
  s.relayed = relayed_;
  s.retries = retries_;
  s.drops = drops_;
  s.dup_rx = dup_rx_;
  s.corrupt_rx = corrupt_rx_;
  s.arq_timeouts = arq_timeouts_;
  s.energy = energy;
  s.phases.reserve(lanes_.size());
  for (const auto& l : lanes_)
    s.phases.push_back({l->name, l->tx, l->rx});
  std::sort(s.phases.begin(), s.phases.end(),
            [](const NodeTelemetrySnapshot::PhaseLane& a,
               const NodeTelemetrySnapshot::PhaseLane& b) {
              return a.phase < b.phase;
            });
  return s;
}

NodeTelemetrySummary NodeTelemetry::summarize(std::size_t top_k) const {
  NodeTelemetrySummary s;
  s.nodes = size();
  if (s.nodes == 0) return s;
  std::vector<double> energy_by_node(tx_bytes_.size());
  double tx_sum = 0.0;
  for (int v = 0; v < size(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    energy_by_node[i] = energy_j(v);
    tx_sum += tx_bytes_[i];
    s.max_tx_bytes = std::max(s.max_tx_bytes, tx_bytes_[i]);
    if (tx_bytes_[i] > 0.0 || rx_bytes_[i] > 0.0 || ops_[i] > 0.0)
      ++s.active_nodes;
    s.max_hops = std::max(s.max_hops, hops_[i]);
  }
  s.mean_tx_bytes = tx_sum / static_cast<double>(s.nodes);

  // Hotspots: top-k node ids by energy (stable: ties break on lower id).
  std::vector<int> ids(tx_bytes_.size());
  for (int v = 0; v < size(); ++v) ids[static_cast<std::size_t>(v)] = v;
  const std::size_t k = std::min(top_k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k),
                    ids.end(), [&](int a, int b) {
                      const double ea = energy_by_node[static_cast<std::size_t>(a)];
                      const double eb = energy_by_node[static_cast<std::size_t>(b)];
                      if (ea != eb) return ea > eb;
                      return a < b;
                    });
  s.hotspots.assign(ids.begin(), ids.begin() + static_cast<long>(k));

  // Gini coefficient and max/mean of per-node energy.
  std::vector<double> sorted = energy_by_node;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0, weighted = 0.0, max_e = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
    max_e = std::max(max_e, sorted[i]);
  }
  const auto n = static_cast<double>(sorted.size());
  if (total > 0.0) {
    s.energy_gini = (2.0 * weighted) / (n * total) - (n + 1.0) / n;
    s.energy_max_over_mean = max_e / (total / n);
  }
  return s;
}

}  // namespace isomap::obs
