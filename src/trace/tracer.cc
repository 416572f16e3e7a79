#include "trace/tracer.hpp"

#include <algorithm>

namespace omsp::trace {

namespace {

// Bumped on every install; a thread-local cached ring is only valid while its
// generation matches the active tracer's, which makes stale pointers from a
// destroyed tracer unreachable without any hot-path locking.
std::atomic<std::uint64_t> g_generation{0};

struct LocalRef {
  std::uint64_t generation = 0;
  Ring* ring = nullptr;
};
thread_local LocalRef t_local;
thread_local std::uint32_t t_track = 0;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

} // namespace

std::atomic<Tracer*> Tracer::g_active{nullptr};

Ring::Ring(std::size_t capacity, std::uint32_t track) : track_(track) {
  capacity = round_up_pow2(capacity < 2 ? 2 : capacity);
  slots_.resize(capacity);
  mask_ = capacity - 1;
}

Tracer::Tracer(Options opts) : opts_(std::move(opts)), generation_(0) {}

Tracer::~Tracer() { uninstall(); }

bool Tracer::install() {
  Tracer* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_release,
                                        std::memory_order_relaxed))
    return false;
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  return true;
}

void Tracer::uninstall() {
  Tracer* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
}

void Tracer::bind_thread(std::uint32_t track) {
  t_track = track;
  // Eagerly register this thread's ring: emissions also happen from the
  // SIGSEGV handler (page faults ARE the protocol), and pre-registration
  // keeps that path free of the registry mutex.
  if (Tracer* t = active(); t != nullptr) (void)t->local_ring();
}

Ring* Tracer::local_ring() {
  if (t_local.generation == generation_ && t_local.ring != nullptr)
    return t_local.ring;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto at = std::upper_bound(
      rings_.begin(), rings_.end(), t_track,
      [](std::uint32_t track, const std::unique_ptr<Ring>& r) {
        return track < r->track();
      });
  Ring* ring =
      rings_.insert(at, std::make_unique<Ring>(opts_.ring_events, t_track))
          ->get();
  t_local = LocalRef{generation_, ring};
  return ring;
}

void Tracer::emit(EventKind kind, ContextId ctx, std::uint64_t arg0,
                  std::uint64_t arg1, std::uint16_t flags, double dur_us) {
  Event e;
  e.kind = kind;
  e.ctx = ctx;
  e.rank = t_track;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.flags = flags;
  e.dur_us = dur_us;
  // ts is the event's virtual START time: emission happens at completion for
  // duration-carrying events, so back the stamp up by the duration.
  if (const auto* clock = sim::VirtualClock::current(); clock != nullptr)
    e.ts_us = clock->now_us() - dur_us;
  local_ring()->push(e);
}

void Tracer::drain_all() {
  std::lock_guard<std::mutex> clock(collect_mutex_);
  std::lock_guard<std::mutex> rlock(registry_mutex_);
  for (auto& ring : rings_)
    ring->drain([&](const Event& e) { collected_.push_back(e); });
}

std::uint64_t Tracer::dropped_total() const {
  std::lock_guard<std::mutex> rlock(registry_mutex_);
  std::uint64_t n = dropped_before_clear_;
  for (const auto& ring : rings_) n += ring->dropped();
  return n;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> clock(collect_mutex_);
  std::lock_guard<std::mutex> rlock(registry_mutex_);
  for (auto& ring : rings_) {
    ring->drain([](const Event&) {});
    ring->reset_dropped();
  }
  collected_.clear();
  dropped_before_clear_ = 0;
}

} // namespace omsp::trace
