// In-memory spans for the traced run (perfbench/README.md, "Tracing").
//
// Spans are recorded by the benchmark around its own calls into the
// library, never inside it. Each thread appends to its own buffer; a span
// names its parent by index in the same buffer, and the spans of one
// operation share an op id. Buffers are written out once, after the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanName : std::uint8_t {
  kOpContains,
  kOpInsert,
  kOpErase,
  kOpScan,
  kSnapshot,         // ShardedMap::snapshot() (MVCC acquire on every shard)
  kSnapshotRange,    // Snapshot::range() (k-way merge of shard cursors)
  kSnapshotRelease,  // Snapshot::release()
  kSetupPrefill,
  kTeardownDestroy,
  kCount
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

constexpr const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kOpContains:      return "op.contains";
    case SpanName::kOpInsert:        return "op.insert";
    case SpanName::kOpErase:         return "op.erase";
    case SpanName::kOpScan:          return "op.scan";
    case SpanName::kSnapshot:        return "shard.snapshot";
    case SpanName::kSnapshotRange:   return "shard.snapshot.range";
    case SpanName::kSnapshotRelease: return "shard.snapshot.release";
    case SpanName::kSetupPrefill:    return "setup.prefill";
    case SpanName::kTeardownDestroy: return "teardown.destroy";
    case SpanName::kCount:           break;
  }
  return "?";
}

struct Span {
  std::uint64_t op_id;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  // index in the same buffer; -1 for a root
  SpanName name;
};

/// One thread's spans. Bounded: once `cap` spans are held, further spans
/// are dropped, so a long run cannot grow without limit.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t cap = 0) { spans_.reserve(cap); }

  /// Room for `n` more spans (one operation's whole tree)?
  bool has_room(std::size_t n) const {
    return spans_.size() + n <= spans_.capacity();
  }

  std::int32_t add(SpanName name, std::uint64_t op_id, std::uint64_t start,
                   std::uint64_t end, std::int32_t parent = -1) {
    if (!has_room(1)) return -1;
    spans_.push_back({op_id, start, end, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per span name: how many, their summed duration, and their self time
/// (duration minus the time their children cover; a thread's children run
/// one after another, so that is the sum of the children's durations).
struct SelfTime {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

inline std::array<SelfTime, kSpanNames> self_times(
    const std::vector<const SpanBuffer*>& buffers) {
  std::array<SelfTime, kSpanNames> out{};
  for (const SpanBuffer* b : buffers) {
    const auto& sp = b->spans();
    std::vector<std::uint64_t> child_ns(sp.size(), 0);
    for (const Span& s : sp) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < sp.size(); ++i) {
      SelfTime& t = out[static_cast<std::size_t>(sp[i].name)];
      const std::uint64_t dur = sp[i].end_ns - sp[i].start_ns;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return out;
}

/// One CSV line per span; times relative to `origin_ns`.
inline bool write_spans_csv(const std::string& path,
                            const std::vector<const SpanBuffer*>& buffers,
                            std::uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,id,parent,op_id,name,start_ns,end_ns\n");
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    const auto& sp = buffers[t]->spans();
    for (std::size_t i = 0; i < sp.size(); ++i) {
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%llu,%llu\n", t, i, sp[i].parent,
                   static_cast<unsigned long long>(sp[i].op_id),
                   span_name(sp[i].name),
                   static_cast<unsigned long long>(sp[i].start_ns - origin_ns),
                   static_cast<unsigned long long>(sp[i].end_ns - origin_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
