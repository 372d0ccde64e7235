#include "obs/trace.hpp"

namespace isomap::obs {

TraceSink::TraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {}

TraceSink::TraceSink(std::ostream& out) : out_(&out) {}

void TraceSink::flush() {
  if (out_) out_->flush();
}

void TraceSink::emit(const TraceEvent& event) {
  if (!out_) return;
  line_.clear();
  line_ += "{\"kind\":";
  json_escape(line_, event.kind);
  line_ += ",\"phase\":";
  json_escape(line_, event.phase);
  if (event.node >= 0) {
    line_ += ",\"node\":";
    line_ += json_number(event.node);
  }
  if (event.peer >= 0) {
    line_ += ",\"peer\":";
    line_ += json_number(event.peer);
  }
  if (event.report >= 0) {
    line_ += ",\"report\":";
    line_ += json_number(static_cast<double>(event.report));
  }
  if (event.hop >= 0) {
    line_ += ",\"hop\":";
    line_ += json_number(event.hop);
  }
  if (event.isolevel != TraceEvent::kNoLevel) {
    line_ += ",\"isolevel\":";
    line_ += json_number(event.isolevel);
  }
  if (event.tx_bytes != 0.0) {
    line_ += ",\"tx_bytes\":";
    line_ += json_number(event.tx_bytes);
  }
  if (event.rx_bytes != 0.0) {
    line_ += ",\"rx_bytes\":";
    line_ += json_number(event.rx_bytes);
  }
  if (event.ops != 0.0) {
    line_ += ",\"ops\":";
    line_ += json_number(event.ops);
  }
  if (event.wall_s >= 0.0) {
    line_ += ",\"wall_s\":";
    line_ += json_number(event.wall_s);
  }
  if (event.latency_s >= 0.0) {
    line_ += ",\"latency_s\":";
    line_ += json_number(event.latency_s);
  }
  line_ += "}\n";
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++events_;
}

}  // namespace isomap::obs
