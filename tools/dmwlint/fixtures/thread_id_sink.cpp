// Fixture: thread-id-sink rule. Outcomes, transcripts and reports are
// byte-identical across thread counts and executors, so no thread
// identity (OS thread id, worker index, hardware concurrency) may flow
// into a transcript hash or a report field.
// dmwlint-fixture-path: src/dmw/thread_id_sink_fixture.cpp
#include <cstddef>
#include <vector>

#include "support/thread_pool.hpp"

namespace dmw {

struct Transcript {
  void absorb(unsigned value);
};

struct JsonWriter {
  JsonWriter& key(const char* name);
  void write_scalar(long value);
};

std::size_t hardware_concurrency();

void os_thread_ids_are_banned_outright() {
  const auto id = std::this_thread::get_id();  // EXPECT: thread-id-sink
  (void)id;
}

void identity_into_sinks(Transcript& transcript, JsonWriter& out) {
  transcript.absorb(  // EXPECT: thread-id-sink
      static_cast<unsigned>(ThreadPool::current_worker_id()));

  out.key("workers").write_scalar(  // EXPECT: thread-id-sink
      static_cast<long>(hardware_concurrency()));
}

// Slot addressing is what current_worker_id() is *for*: indexing a
// per-worker accumulator never fires.
void slot_addressing(std::vector<int>& slots) {
  const int worker = ThreadPool::current_worker_id();
  if (worker >= 0) slots[static_cast<std::size_t>(worker)] += 1;
}

// The escape hatch, for audited debug surfaces.
void allowlisted(JsonWriter& out) {
  // dmwlint:allow(thread-id-sink) debug-only lane labels, not in RunReport
  out.key("lane").write_scalar(ThreadPool::current_worker_id());
}

}  // namespace dmw
