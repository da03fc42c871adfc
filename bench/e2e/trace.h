// In-memory span recorder for the traced benchmark runs.
//
// A span is (op, id, parent, name, start_ns, end_ns). A span opened while
// no other span is open is the root of a new op; its name is the op kind
// ("sim.trial", "reader.stream.packet", ...). Every other span is a layer
// span named after the library layer whose public call it wraps. Spans
// stay in memory until write_jsonl(), so recording costs two clock reads
// and a vector append per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace backfi::bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class tracer {
 public:
  tracer() { spans_.reserve(1 << 16); }

  std::uint32_t open(const char* name) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    if (stack_.empty()) ++ops_;
    spans_.push_back({ops_, id, parent, name, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Duration of the most recently closed root span [us].
  double last_root_us() const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
      if (it->parent < 0) return static_cast<double>(it->end_ns - it->start_ns) * 1e-3;
    return 0.0;
  }

  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const span& s : spans_) {
      std::fprintf(f,
                   "{\"op\":%llu,\"span\":%u,\"parent\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.op), s.id,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct span {
    std::uint64_t op;
    std::uint32_t id;
    std::int64_t parent;  ///< -1 for an op's root span
    const char* name;     ///< string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t ops_ = 0;
};

/// RAII span; a null tracer records nothing (the untraced replays).
class scoped_span {
 public:
  scoped_span(tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : 0) {}
  ~scoped_span() {
    if (t_) t_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
  std::uint32_t id_;
};

}  // namespace backfi::bench
