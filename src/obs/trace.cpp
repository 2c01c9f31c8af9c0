#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/sync.h"

namespace rs::obs {
namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

// One recorded event; name/cat/arg_name point at string literals.
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  const char* arg_name = nullptr;
  std::int64_t arg = 0;
  std::uint64_t ts_ns = 0;   // relative to trace start
  std::uint64_t dur_ns = 0;
  std::uint64_t id = 0;      // async/flow pairing key
  char phase = 'X';
  bool has_id = false;
};

struct TraceBuffer {
  explicit TraceBuffer(std::size_t capacity, std::uint32_t tid_in)
      : events(capacity), tid(tid_in) {}
  // Per-buffer lock: the owning thread holds it per record, the flusher
  // holds it while serializing. Uncontended for the whole recording
  // lifetime (only trace_stop ever contends), so the record path stays
  // cheap while flushing a live ring is race-free — previously a
  // recording thread that had already loaded g_trace_enabled could write
  // an event while write_json read the same slot.
  Mutex mutex;
  // Ring; recorded % capacity is the next slot.
  std::vector<TraceEvent> events RS_GUARDED_BY(mutex);
  std::uint64_t recorded RS_GUARDED_BY(mutex) = 0;
  const std::uint32_t tid = 0;
};

struct TraceState {
  Mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers RS_GUARDED_BY(mutex);
  std::string path RS_GUARDED_BY(mutex);
  std::size_t events_per_thread RS_GUARDED_BY(mutex) = 1 << 16;
  // Read lock-free on the record path; written only in trace_start.
  std::atomic<std::uint64_t> t0_ns{0};
  std::atomic<std::uint64_t> generation{0};
  std::uint32_t next_tid RS_GUARDED_BY(mutex) = 1;
  bool atexit_registered RS_GUARDED_BY(mutex) = false;
};

TraceState& state() {
  static TraceState* instance = new TraceState();  // never destroyed
  return *instance;
}

struct ThreadTraceCache {
  TraceBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
};
thread_local ThreadTraceCache t_trace;

TraceBuffer& thread_buffer() {
  TraceState& st = state();
  MutexLock lock(st.mutex);
  auto buffer =
      std::make_shared<TraceBuffer>(st.events_per_thread, st.next_tid++);
  st.buffers.push_back(buffer);
  t_trace.buffer = buffer.get();  // kept alive by st.buffers
  t_trace.generation = st.generation.load(std::memory_order_relaxed);
  return *buffer;
}

void record_event(const char* cat, const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns, const char* arg_name,
                  std::int64_t arg, char phase, std::uint64_t id = 0,
                  bool has_id = false) {
  TraceState& st = state();
  TraceBuffer* buffer = t_trace.buffer;
  if (buffer == nullptr ||
      t_trace.generation !=
          st.generation.load(std::memory_order_relaxed)) {
    buffer = &thread_buffer();  // first event, or a new session started
  }
  MutexLock lock(buffer->mutex);
  TraceEvent& event =
      buffer->events[buffer->recorded % buffer->events.size()];
  ++buffer->recorded;
  event.cat = cat;
  event.name = name;
  event.arg_name = arg_name;
  event.arg = arg;
  event.ts_ns = start_ns - st.t0_ns.load(std::memory_order_relaxed);
  event.dur_ns = dur_ns;
  event.id = id;
  event.phase = phase;
  event.has_id = has_id;
}

struct KeptEvent {
  TraceEvent event;
  std::uint32_t tid = 0;
};

// A wrapped ring lost its oldest events, and with them the opening half
// of some pairs still in it: an 'E' whose 'B' is gone, an async or flow
// id whose begin is gone. Viewers and scripts/check_trace_json.py reject
// those, so after a wrap every async/flow id that no longer pairs is
// left out whole ('B'/'E' orphans are skipped while copying).
void drop_unpaired_ids(std::vector<KeptEvent>& events) {
  struct Pairing {
    int begins = 0;
    int ends = 0;
  };
  auto key = [](const TraceEvent& e) {
    const bool flow = e.phase == 's' || e.phase == 't' || e.phase == 'f';
    return std::make_tuple(std::string(e.cat), e.id, flow);
  };
  std::map<std::tuple<std::string, std::uint64_t, bool>, Pairing> pairing;
  for (const KeptEvent& kept : events) {
    const TraceEvent& e = kept.event;
    if (!e.has_id) continue;
    Pairing& p = pairing[key(e)];
    if (e.phase == 'b' || e.phase == 's') ++p.begins;
    if (e.phase == 'e' || e.phase == 'f') ++p.ends;
  }
  std::erase_if(events, [&](const KeptEvent& kept) {
    if (!kept.event.has_id) return false;
    const Pairing& p = pairing[key(kept.event)];
    return p.begins == 0 || p.begins != p.ends;
  });
}

// Every ring's events, oldest first, with *dropped counting overwrites.
std::vector<KeptEvent> collect_events(TraceState& st, std::uint64_t* dropped)
    RS_REQUIRES(st.mutex) {
  std::vector<KeptEvent> events;
  *dropped = 0;
  for (const auto& buffer : st.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    const std::size_t capacity = buffer->events.size();
    const bool wrapped = buffer->recorded > capacity;
    const std::size_t kept =
        wrapped ? capacity : static_cast<std::size_t>(buffer->recorded);
    const std::size_t oldest =
        wrapped ? static_cast<std::size_t>(buffer->recorded % capacity) : 0;
    if (wrapped) *dropped += buffer->recorded - capacity;
    std::size_t open_spans = 0;
    for (std::size_t i = 0; i < kept; ++i) {
      const TraceEvent& event = buffer->events[(oldest + i) % capacity];
      if (event.phase == 'B') ++open_spans;
      if (event.phase == 'E') {
        if (wrapped && open_spans == 0) continue;  // its 'B' was overwritten
        if (open_spans > 0) --open_spans;
      }
      events.push_back({event, buffer->tid});
    }
  }
  if (*dropped > 0) drop_unpaired_ids(events);
  return events;
}

Status write_json(TraceState& st, const std::string& path)
    RS_REQUIRES(st.mutex) {
  std::uint64_t dropped = 0;
  const std::vector<KeptEvent> events = collect_events(st, &dropped);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::from_errno("open " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& [event, tid] : events) {
    if (!first) std::fputc(',', f);
    first = false;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                 event.name, event.cat, event.phase, tid,
                 static_cast<double>(event.ts_ns) / 1e3);
    if (event.phase == 'X') {
      std::fprintf(f, ",\"dur\":%.3f",
                   static_cast<double>(event.dur_ns) / 1e3);
    }
    if (event.has_id) {
      std::fprintf(f, ",\"id\":\"0x%llx\"",
                   static_cast<unsigned long long>(event.id));
      // A flow-end binds to the enclosing slice's end, not its start.
      if (event.phase == 'f') std::fputs(",\"bp\":\"e\"", f);
    }
    if (event.arg_name != nullptr) {
      std::fprintf(f, ",\"args\":{\"%s\":%lld}", event.arg_name,
                   static_cast<long long>(event.arg));
    }
    std::fputc('}', f);
  }
  std::fputs("]}", f);
  if (std::fclose(f) != 0) return Status::from_errno("close " + path);
  if (dropped > 0) {
    RS_WARN("trace ring overflow: %llu events dropped (raise "
            "events_per_thread)",
            static_cast<unsigned long long>(dropped));
  }
  return Status::ok();
}

void stop_at_exit() {
  const Status status = trace_stop();
  if (!status.is_ok()) {
    std::fprintf(stderr, "RS_TRACE flush failed: %s\n",
                 status.to_string().c_str());
  }
}

// Mirrors log.cpp's RS_LOG_LEVEL bootstrap: RS_TRACE=<path> arms the
// recorder before main() and flushes at exit.
struct TraceEnvInit {
  TraceEnvInit() {
    const char* env = std::getenv("RS_TRACE");
    if (env != nullptr && env[0] != '\0') {
      const Status status = trace_start(env);
      if (!status.is_ok()) {
        std::fprintf(stderr, "RS_TRACE init failed: %s\n",
                     status.to_string().c_str());
      }
    }
  }
};
TraceEnvInit g_trace_env_init;

}  // namespace

namespace detail {

std::uint64_t trace_now_ns() { return now_ns(); }

void trace_record(const char* cat, const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns, const char* arg_name,
                  std::int64_t arg) {
  record_event(cat, name, start_ns, dur_ns, arg_name, arg, 'X');
}

void trace_record_id(const char* cat, const char* name, char phase,
                     std::uint64_t id) {
  record_event(cat, name, now_ns(), 0, nullptr, 0, phase, id, true);
}

}  // namespace detail

Status trace_start(const std::string& path, std::size_t events_per_thread) {
  if (path.empty() || events_per_thread == 0) {
    return Status::invalid("trace_start: empty path or zero capacity");
  }
  TraceState& st = state();
  bool register_atexit = false;
  {
    MutexLock lock(st.mutex);
    if (detail::g_trace_enabled.load(std::memory_order_relaxed)) {
      return Status::invalid("trace already active (writing to " + st.path +
                             ")");
    }
    st.path = path;
    st.events_per_thread = events_per_thread;
    st.t0_ns.store(now_ns(), std::memory_order_relaxed);
    st.buffers.clear();  // previous session's rings
    st.next_tid = 1;
    st.generation.fetch_add(1, std::memory_order_relaxed);
    if (!st.atexit_registered) {
      st.atexit_registered = true;
      register_atexit = true;
    }
  }
  if (register_atexit) std::atexit(stop_at_exit);
  detail::g_trace_enabled.store(true, std::memory_order_release);
  return Status::ok();
}

Status trace_stop() {
  TraceState& st = state();
  if (!detail::g_trace_enabled.exchange(false, std::memory_order_acq_rel)) {
    return Status::ok();
  }
  // Recording threads may race the flag flip by one trailing event; the
  // per-buffer locks inside write_json serialize against them, so the
  // flush sees each ring in a consistent state.
  MutexLock lock(st.mutex);
  return write_json(st, st.path);
}

void trace_instant(const char* cat, const char* name) {
  if (!trace_enabled()) return;
  record_event(cat, name, now_ns(), 0, nullptr, 0, 'i');
}

void trace_span_begin(const char* cat, const char* name) {
  if (!trace_enabled()) return;
  record_event(cat, name, now_ns(), 0, nullptr, 0, 'B');
}

void trace_span_end(const char* cat, const char* name) {
  if (!trace_enabled()) return;
  record_event(cat, name, now_ns(), 0, nullptr, 0, 'E');
}

void trace_async_begin(const char* cat, const char* name,
                       std::uint64_t id) {
  if (!trace_enabled()) return;
  detail::trace_record_id(cat, name, 'b', id);
}

void trace_async_instant(const char* cat, const char* name,
                         std::uint64_t id) {
  if (!trace_enabled()) return;
  detail::trace_record_id(cat, name, 'n', id);
}

void trace_async_end(const char* cat, const char* name, std::uint64_t id) {
  if (!trace_enabled()) return;
  detail::trace_record_id(cat, name, 'e', id);
}

void trace_flow_begin(const char* cat, const char* name, std::uint64_t id) {
  if (!trace_enabled()) return;
  detail::trace_record_id(cat, name, 's', id);
}

void trace_flow_step(const char* cat, const char* name, std::uint64_t id) {
  if (!trace_enabled()) return;
  detail::trace_record_id(cat, name, 't', id);
}

void trace_flow_end(const char* cat, const char* name, std::uint64_t id) {
  if (!trace_enabled()) return;
  detail::trace_record_id(cat, name, 'f', id);
}

}  // namespace rs::obs
