#include "obs/recorder.h"

#include <algorithm>

namespace skh::obs {

FlightRecorder::FlightRecorder(const RecorderConfig& cfg) : cfg_(cfg) {
  // Ring state is packed into per-pair bytes; a deeper ring than 255 would
  // overflow them and is far past any forensic need.
  cfg_.window_depth = std::clamp<std::size_t>(cfg_.window_depth, 1, 255);
  cfg_.event_capacity = std::max<std::size_t>(cfg_.event_capacity, 1);
  cfg_.bundle_capacity = std::max<std::size_t>(cfg_.bundle_capacity, 1);
  events_.resize(cfg_.event_capacity);
}

void FlightRecorder::reserve_pairs(std::size_t n) {
  if (n <= cursor_.size()) return;
  windows_.resize(n * cfg_.window_depth);
  cursor_.resize(n, 0);
  count_.resize(n, 0);
}

void FlightRecorder::record_window(std::uint32_t gid, const WindowRecord& rec) {
  if (!cfg_.enabled) return;
  if (gid >= cursor_.size()) reserve_pairs(static_cast<std::size_t>(gid) + 1);
  const std::size_t base = static_cast<std::size_t>(gid) * cfg_.window_depth;
  const std::uint8_t cur = cursor_[gid];
  if (count_[gid] == cfg_.window_depth) {
    ++window_drops_;  // overwrites the oldest record for this pair
  } else {
    ++count_[gid];
  }
  windows_[base + cur] = rec;
  cursor_[gid] =
      static_cast<std::uint8_t>((cur + 1) % cfg_.window_depth);
}

void FlightRecorder::record_event(const EventRecord& rec) {
  if (!cfg_.enabled) return;
  if (event_count_ == events_.size()) {
    ++event_drops_;
  } else {
    ++event_count_;
  }
  events_[event_cursor_] = rec;
  event_cursor_ = (event_cursor_ + 1) % events_.size();
}

std::vector<WindowRecord> FlightRecorder::windows_of(
    std::uint32_t gid, const EndpointPair& pair) const {
  std::vector<WindowRecord> out;
  if (gid >= cursor_.size()) return out;
  const std::size_t depth = cfg_.window_depth;
  const std::size_t base = static_cast<std::size_t>(gid) * depth;
  const std::size_t n = count_[gid];
  // Oldest record sits at cursor when the ring is full, else at 0.
  const std::size_t first = n == depth ? cursor_[gid] : 0;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WindowRecord& rec = windows_[base + (first + i) % depth];
    if (rec.pair == pair) out.push_back(rec);
  }
  return out;
}

std::vector<EventRecord> FlightRecorder::events() const {
  std::vector<EventRecord> out;
  const std::size_t cap = events_.size();
  const std::size_t first = event_count_ == cap ? event_cursor_ : 0;
  out.reserve(event_count_);
  for (std::size_t i = 0; i < event_count_; ++i) {
    out.push_back(events_[(first + i) % cap]);
  }
  return out;
}

std::vector<EventRecord> FlightRecorder::events_of(
    const EndpointPair& pair) const {
  std::vector<EventRecord> out;
  for (const EventRecord& e : events()) {
    if (e.pair == pair) out.push_back(e);
  }
  return out;
}

void FlightRecorder::store_bundle(std::uint32_t case_id, std::string json) {
  for (auto& [id, body] : bundles_) {
    if (id == case_id) {
      body = std::move(json);
      return;
    }
  }
  bundles_.emplace_back(case_id, std::move(json));
  while (bundles_.size() > cfg_.bundle_capacity) {
    bundles_.pop_front();
    ++bundle_drops_;
  }
}

const std::string* FlightRecorder::bundle_of(std::uint32_t case_id) const {
  for (const auto& [id, body] : bundles_) {
    if (id == case_id) return &body;
  }
  return nullptr;
}

void FlightRecorder::clear() {
  std::fill(cursor_.begin(), cursor_.end(), std::uint8_t{0});
  std::fill(count_.begin(), count_.end(), std::uint8_t{0});
  event_cursor_ = event_count_ = 0;
  bundles_.clear();
  window_drops_ = event_drops_ = bundle_drops_ = 0;
}

}  // namespace skh::obs
