#include "core/runtime.hpp"

#include <cstdlib>

#include "common/check.hpp"
#include "sim/virtual_clock.hpp"
#include "trace/tracer.hpp"

namespace omsp::core {

namespace {
thread_local Team* t_current_team = nullptr;
} // namespace

Team* OmpRuntime::current_team() { return t_current_team; }

namespace {

// Parse OMP_SCHEDULE ("kind[,chunk]", OpenMP 1.0 §4).
Schedule parse_omp_schedule(const char* value) {
  if (value == nullptr) return Schedule::static_block();
  std::string s(value);
  std::string kind = s;
  std::int64_t chunk = 0;
  if (const auto comma = s.find(','); comma != std::string::npos) {
    kind = s.substr(0, comma);
    chunk = std::atoll(s.c_str() + comma + 1);
  }
  if (kind == "dynamic") return Schedule::dynamic(chunk > 0 ? chunk : 1);
  if (kind == "guided") return Schedule::guided(chunk > 0 ? chunk : 1);
  if (kind == "static" && chunk > 0) return Schedule::static_chunked(chunk);
  return Schedule::static_block();
}

} // namespace

OmpRuntime::OmpRuntime(tmk::Config config) : dsm_(std::move(config)) {
  rank_state_.resize(dsm_.nprocs());
  reduce_scratch_ = dsm_.shared_malloc(kReduceScratchBytes, tmk::kPageSize);
  if (const char* env = std::getenv("OMP_NUM_THREADS"); env != nullptr) {
    const long n = std::atol(env);
    if (n > 0) default_num_threads_ = static_cast<std::uint32_t>(n);
  }
  runtime_schedule_ = parse_omp_schedule(std::getenv("OMP_SCHEDULE"));
}

OmpRuntime::~OmpRuntime() = default;

LockId OmpRuntime::critical_lock_id(const std::string& name) {
  std::lock_guard<std::mutex> lk(critical_mutex_);
  auto [it, inserted] = critical_ids_.emplace(name, next_critical_id_);
  if (inserted) ++next_critical_id_;
  return it->second;
}

double OmpRuntime::wtime() {
  auto* clock = sim::VirtualClock::current();
  OMSP_CHECK_MSG(clock != nullptr, "wtime() needs a bound virtual clock");
  clock->sync_cpu();
  return clock->now_us() * 1e-6;
}

void OmpRuntime::parallel(const std::function<void(Team&)>& fn,
                          std::uint32_t num_threads) {
  if (num_threads == 0) num_threads = default_num_threads_;
  if (num_threads == 0 || num_threads > dsm_.nprocs())
    num_threads = dsm_.nprocs();

  if (t_current_team != nullptr) {
    // Nested parallel region: OpenMP 1.0 serializes it — a team of one,
    // executed by the encountering thread.
    Team inner(*this, 0, 1);
    Team* outer = t_current_team;
    t_current_team = &inner;
    fn(inner);
    t_current_team = outer;
    return;
  }

  for (auto& rs : rank_state_) rs = RankState{};
  {
    std::lock_guard<std::mutex> lk(loop_mutex_);
    loop_counters_.clear();
    ++region_epoch_;
  }
  single_claimed_.store(0, std::memory_order_relaxed);

  const std::uint32_t team_size = num_threads;
  trace::note(trace::EventKind::kRegionBegin, 0, region_epoch_, team_size);
  dsm_.parallel([&](Rank rank) {
    if (rank >= team_size) return; // not a team member this region
    Team team(*this, rank, team_size);
    t_current_team = &team;
    fn(team);
    t_current_team = nullptr;
  });
  trace::note(trace::EventKind::kRegionEnd, 0, region_epoch_, team_size);
}

void OmpRuntime::parallel_for(std::int64_t lo, std::int64_t hi, Schedule sched,
                              const std::function<void(std::int64_t)>& body,
                              std::uint32_t num_threads) {
  parallel([&](Team& t) { t.for_loop_nowait(lo, hi, sched, body); },
           num_threads);
  // The region join is the barrier.
}

std::atomic<std::int64_t>& Team::loop_counter(std::uint64_t instance,
                                              std::int64_t init) {
  std::lock_guard<std::mutex> lk(rt_.loop_mutex_);
  const std::uint64_t key = (rt_.region_epoch_ << 32) | instance;
  auto it = rt_.loop_counters_.find(key);
  if (it == rt_.loop_counters_.end()) {
    it = rt_.loop_counters_
             .emplace(key,
                      std::make_unique<std::atomic<std::int64_t>>(init))
             .first;
  }
  return *it->second;
}

void Team::grab_chunk(ContextId cid) {
  // A chunk grab is a round trip to the loop's shared counter, which lives
  // with the team master (TreadMarks implements this with a lock plus a
  // shared index). Charge and count it honestly.
  if (cid == 0) return;
  auto* clock = sim::VirtualClock::current();
  if (clock == nullptr) return;
  auto& transport = rt_.dsm_.router().transport();
  const std::size_t bytes = net::msg_fixed_bytes(net::MsgType::kLoopChunk);
  clock->charge(transport.notify(
      net::Envelope::notice(cid, 0, net::MsgType::kLoopChunk, bytes)));
  clock->charge(transport.notify(
      net::Envelope::notice(0, cid, net::MsgType::kLoopChunk, bytes)));
  clock->charge(rt_.dsm_.config().cost.lock_service_us);
}

void Team::for_loop_nowait(std::int64_t lo, std::int64_t hi, Schedule sched,
                           const std::function<void(std::int64_t)>& body) {
  for_chunks(
      lo, hi, sched,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) body(i);
      },
      /*nowait=*/true);
}

void Team::for_chunks(std::int64_t lo, std::int64_t hi, Schedule sched,
                      const std::function<void(std::int64_t, std::int64_t)>&
                          body,
                      bool nowait) {
  const std::uint64_t instance = rt_.rank_state_[rank_].loop_count++;
  switch (sched.kind) {
  case ScheduleKind::kStatic:
    static_chunks(lo, hi, sched.chunk, rank_, size_, body);
    break;
  case ScheduleKind::kDynamic: {
    const std::int64_t chunk = sched.chunk > 0 ? sched.chunk : 1;
    auto& next = loop_counter(instance, lo);
    const ContextId cid = rt_.dsm_.config().context_of_rank(rank_);
    for (;;) {
      const std::int64_t b = next.fetch_add(chunk);
      if (b >= hi) break;
      grab_chunk(cid);
      body(b, b + chunk < hi ? b + chunk : hi);
    }
    break;
  }
  case ScheduleKind::kGuided: {
    const std::int64_t min_chunk = sched.chunk > 0 ? sched.chunk : 1;
    auto& next = loop_counter(instance, lo);
    const ContextId cid = rt_.dsm_.config().context_of_rank(rank_);
    for (;;) {
      std::int64_t b = next.load();
      std::int64_t c;
      do {
        if (b >= hi) break;
        c = guided_next_chunk(hi - b, size_, min_chunk);
      } while (!next.compare_exchange_weak(b, b + c));
      if (b >= hi) break;
      grab_chunk(cid);
      body(b, b + c < hi ? b + c : hi);
    }
    break;
  }
  }
  if (!nowait) barrier();
}

void Team::critical(const std::string& name,
                    const std::function<void()>& fn) {
  const LockId id = rt_.critical_lock_id(name);
  rt_.dsm_.lock_acquire(id);
  fn();
  rt_.dsm_.lock_release(id);
}

void Team::single(const std::function<void()>& fn, bool nowait) {
  const std::uint64_t instance = ++rt_.rank_state_[rank_].single_count;
  std::uint64_t expected = instance - 1;
  if (rt_.single_claimed_.compare_exchange_strong(expected, instance)) fn();
  if (!nowait) barrier();
}

void Team::sections(const std::vector<std::function<void()>>& sections,
                    bool nowait) {
  for (std::size_t s = rank_; s < sections.size(); s += size_) sections[s]();
  if (!nowait) barrier();
}

void Team::flush() {
  rt_.dsm_.lock_acquire(kFlushLockId);
  rt_.dsm_.lock_release(kFlushLockId);
}

} // namespace omsp::core
