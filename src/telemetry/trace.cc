#include "src/telemetry/trace.h"

#include "src/telemetry/metrics.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pevm::telemetry {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

// One ring slot. Every field is an atomic so the exporter may read while the
// owning thread overwrites a wrapped slot: the worst case is one garbled
// event in the output, never UB. Relaxed everywhere — ordering comes from the
// buffer head's release/acquire pair.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<uint64_t> arg{0};
  std::atomic<uint64_t> begin_ns{0};
  std::atomic<uint64_t> end_ns{0};
  std::atomic<uint8_t> kind{0};
};

struct ThreadBuffer {
  explicit ThreadBuffer(size_t cap, uint64_t id)
      : capacity(cap), mask(cap - 1), slots(new Slot[cap]), tid(id) {}

  const size_t capacity;  // Power of two.
  const size_t mask;
  std::unique_ptr<Slot[]> slots;
  std::atomic<uint64_t> head{0};  // Events ever pushed by the owner thread.
  const uint64_t tid;
  std::mutex name_mu;
  std::string name = "thread";
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint64_t next_tid = 1;
  size_t ring_capacity = 1u << 15;
};

// Leaked intentionally: pool / compaction threads may emit events during
// static destruction, after a function-local static would have died.
Registry& GlobalRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

// A thread's telemetry identity. The ring (~1.5 MB at the default capacity,
// all of it resident once zero-filled) is created on the thread's first event,
// not when the thread is named: most pool, stage and serving threads are named
// and never record because tracing is off by default.
struct LocalThread {
  std::string name = "thread";
  std::shared_ptr<ThreadBuffer> buffer;
};

LocalThread& Local() {
  thread_local LocalThread local;
  return local;
}

ThreadBuffer& LocalBuffer() {
  LocalThread& local = Local();
  if (!local.buffer) {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    local.buffer = std::make_shared<ThreadBuffer>(registry.ring_capacity, registry.next_tid++);
    local.buffer->name = local.name;
    registry.buffers.push_back(local.buffer);
  }
  return *local.buffer;
}

void Push(EventKind kind, const char* name, uint64_t begin_ns, uint64_t end_ns,
          const char* arg_name, uint64_t arg) {
  ThreadBuffer& buffer = LocalBuffer();
  uint64_t h = buffer.head.load(std::memory_order_relaxed);
  Slot& slot = buffer.slots[h & buffer.mask];
  slot.name.store(name, std::memory_order_relaxed);
  slot.arg_name.store(arg_name, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.begin_ns.store(begin_ns, std::memory_order_relaxed);
  slot.end_ns.store(end_ns, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  buffer.head.store(h + 1, std::memory_order_release);
}

void AppendJsonEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void AppendMicros(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Reset() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    buffer->head.store(0, std::memory_order_relaxed);
  }
}

void SetThreadName(const char* name) {
  LocalThread& local = Local();
  local.name = name;
  if (local.buffer) {
    std::lock_guard<std::mutex> lock(local.buffer->name_mu);
    local.buffer->name = name;
  }
}

size_t SetRingCapacity(size_t events) {
  size_t capacity = std::bit_ceil(events < 8 ? size_t{8} : events);
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.ring_capacity = capacity;
  return capacity;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void EmitSpan(const char* name, uint64_t begin_ns, uint64_t end_ns, const char* arg_name,
              uint64_t arg) {
  Push(EventKind::kSpan, name, begin_ns, end_ns, arg_name, arg);
}

void EmitInstant(const char* name, const char* arg_name, uint64_t arg) {
  uint64_t now = NowNs();
  Push(EventKind::kInstant, name, now, now, arg_name, arg);
}

void EmitCounter(const char* name, uint64_t value) {
  uint64_t now = NowNs();
  Push(EventKind::kCounter, name, now, now, nullptr, value);
}

uint64_t DroppedEvents() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  uint64_t dropped = 0;
  for (const auto& buffer : registry.buffers) {
    uint64_t head = buffer->head.load(std::memory_order_relaxed);
    if (head > buffer->capacity) {
      dropped += head - buffer->capacity;
    }
  }
  return dropped;
}

size_t RegisteredThreads() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.buffers.size();
}

std::vector<RingStats> TraceRingStats() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  std::vector<RingStats> out;
  out.reserve(buffers.size());
  for (const auto& buffer : buffers) {
    RingStats stats;
    stats.tid = buffer->tid;
    {
      std::lock_guard<std::mutex> lock(buffer->name_mu);
      stats.thread_name = buffer->name;
    }
    uint64_t head = buffer->head.load(std::memory_order_relaxed);
    stats.events_pushed = head;
    stats.capacity = buffer->capacity;
    stats.dropped = head > buffer->capacity ? head - buffer->capacity : 0;
    stats.occupancy = head > buffer->capacity ? buffer->capacity : static_cast<size_t>(head);
    out.push_back(std::move(stats));
  }
  return out;
}

void UpdateTraceGauges() {
  std::vector<RingStats> rings = TraceRingStats();
  uint64_t dropped = 0;
  for (const RingStats& ring : rings) {
    dropped += ring.dropped;
    char name[64];
    std::snprintf(name, sizeof(name), "trace.ring_occupancy.t%llu",
                  static_cast<unsigned long long>(ring.tid));
    GetGauge(name).Set(static_cast<int64_t>(ring.occupancy));
  }
  GetGauge("trace.dropped_events").Set(static_cast<int64_t>(dropped));
  GetGauge("trace.ring_threads").Set(static_cast<int64_t>(rings.size()));
}

std::string ChromeTraceJson() {
  // Snapshot the buffer list, then walk each ring without any lock: the head
  // acquire pairs with the writer's release, so every slot strictly below
  // head is fully written (only a concurrent overwrite of the oldest wrapped
  // slot can tear, by design).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }

  // Perfetto renders absolute microsecond timestamps, but a common base keeps
  // the numbers short and the JSON compact.
  uint64_t base_ns = UINT64_MAX;
  struct Range {
    uint64_t begin = 0, end = 0;
  };
  std::vector<Range> ranges(buffers.size());
  for (size_t b = 0; b < buffers.size(); ++b) {
    uint64_t head = buffers[b]->head.load(std::memory_order_acquire);
    uint64_t first = head > buffers[b]->capacity ? head - buffers[b]->capacity : 0;
    ranges[b] = {first, head};
    for (uint64_t i = first; i < head; ++i) {
      const Slot& slot = buffers[b]->slots[i & buffers[b]->mask];
      if (slot.kind.load(std::memory_order_relaxed) != 0) {
        uint64_t begin = slot.begin_ns.load(std::memory_order_relaxed);
        if (begin < base_ns) {
          base_ns = begin;
        }
      }
    }
  }
  if (base_ns == UINT64_MAX) {
    base_ns = 0;
  }

  std::string out;
  out.reserve(1u << 16);
  out += "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"dropped_events\": ";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(DroppedEvents()));
  out += buf;
  out += "},\n\"traceEvents\": [\n";
  out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"pevm\"}}";
  for (const auto& buffer : buffers) {
    std::string name;
    {
      std::lock_guard<std::mutex> lock(buffer->name_mu);
      name = buffer->name;
    }
    std::snprintf(buf, sizeof(buf), ",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                                    "\"tid\": %llu, \"args\": {\"name\": \"",
                  static_cast<unsigned long long>(buffer->tid));
    out += buf;
    AppendJsonEscaped(out, name.c_str());
    out += "\"}}";
  }

  for (size_t b = 0; b < buffers.size(); ++b) {
    const ThreadBuffer& buffer = *buffers[b];
    for (uint64_t i = ranges[b].begin; i < ranges[b].end; ++i) {
      const Slot& slot = buffer.slots[i & buffer.mask];
      auto kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
      const char* name = slot.name.load(std::memory_order_relaxed);
      if (kind == EventKind::kNone || name == nullptr) {
        continue;
      }
      uint64_t begin = slot.begin_ns.load(std::memory_order_relaxed);
      uint64_t end = slot.end_ns.load(std::memory_order_relaxed);
      // Clamp a torn slot (overwrite raced the export) instead of emitting a
      // timestamp from before the base.
      if (begin < base_ns) {
        begin = base_ns;
      }
      if (end < begin) {
        end = begin;
      }
      const char* arg_name = slot.arg_name.load(std::memory_order_relaxed);
      uint64_t arg = slot.arg.load(std::memory_order_relaxed);

      out += ",\n{\"name\": \"";
      AppendJsonEscaped(out, name);
      out += "\", \"cat\": \"pevm\", \"pid\": 1, \"tid\": ";
      std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(buffer.tid));
      out += buf;
      out += ", \"ts\": ";
      AppendMicros(out, begin - base_ns);
      switch (kind) {
        case EventKind::kSpan:
          out += ", \"ph\": \"X\", \"dur\": ";
          AppendMicros(out, end - begin);
          break;
        case EventKind::kInstant:
          out += ", \"ph\": \"i\", \"s\": \"t\"";
          break;
        case EventKind::kCounter:
          out += ", \"ph\": \"C\"";
          break;
        case EventKind::kNone:
          break;
      }
      if (kind == EventKind::kCounter) {
        std::snprintf(buf, sizeof(buf), ", \"args\": {\"value\": %llu}",
                      static_cast<unsigned long long>(arg));
        out += buf;
      } else if (arg_name != nullptr) {
        out += ", \"args\": {\"";
        AppendJsonEscaped(out, arg_name);
        std::snprintf(buf, sizeof(buf), "\": %llu}", static_cast<unsigned long long>(arg));
        out += buf;
      }
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::string json = ChromeTraceJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace pevm::telemetry
