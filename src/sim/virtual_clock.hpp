// Per-thread virtual clocks for direct-execution simulation.
//
// Each worker thread owns a VirtualClock. Application compute advances it by
// the thread's measured CPU time (so it works on a single-core host where
// threads are time-sliced); runtime operations advance it by modeled costs
// from the CostModel. The runtime brackets its own code in a RuntimeSection
// so its *host* CPU time is excluded — protocol work is charged at modeled
// SP2 cost, not at host speed.
//
// Synchronization points exchange timestamps: a barrier departure sets every
// participant to max(arrivals) + cost; a lock grant makes the acquirer wait
// for the releaser's release time. This yields a causally consistent virtual
// makespan regardless of how the host scheduler interleaved the threads.
#pragma once

#include <ctime>

#include "common/check.hpp"
#include "sim/cost_model.hpp"

namespace omsp::sim {

class VirtualClock {
public:
  explicit VirtualClock(double cpu_scale = 1.0) : cpu_scale_(cpu_scale) {
    if (cpu_scale_ != 0) cpu_base_us_ = thread_cpu_us();
  }

  // Fold the thread's CPU time since the last sample into virtual time. At
  // cpu_scale 0 compute is not measured, and neither this nor skip_cpu reads
  // the thread CPU clock (a real syscall on some VMs; two per page fault).
  void sync_cpu() {
    if (cpu_scale_ == 0) return;
    const double now = thread_cpu_us();
    now_us_ += (now - cpu_base_us_) * cpu_scale_;
    cpu_base_us_ = now;
  }

  // Resample the CPU base without accumulating: used when leaving runtime
  // code whose host cost must not count as application compute.
  void skip_cpu() {
    if (cpu_scale_ != 0) cpu_base_us_ = thread_cpu_us();
  }

  // Add modeled cost.
  void charge(double us) {
    OMSP_DCHECK(us >= 0);
    now_us_ += us;
  }

  // Remove `host_us` of HOST CPU time that sync_cpu unavoidably captured but
  // that is not application compute (e.g. the kernel's SIGSEGV trap and
  // sigreturn around a page fault — the handler itself is excluded by
  // RuntimeSection, but the trap happens before the handler can resample).
  // The amount is scaled like any other compute.
  void discount_cpu(double host_us) { now_us_ -= host_us * cpu_scale_; }

  // Lamport-style merge with an incoming timestamp.
  void advance_to(double t_us) {
    if (t_us > now_us_) now_us_ = t_us;
  }

  double now_us() const { return now_us_; }
  void set_now_us(double t) { now_us_ = t; }
  double cpu_scale() const { return cpu_scale_; }

  static double thread_cpu_us() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }

  // --- thread-local binding -------------------------------------------------
  // The DSM fault handler and message layer need "the clock of the thread
  // executing right now". Worker threads bind their clock on startup.
  static VirtualClock*& current() {
    thread_local VirtualClock* tls = nullptr;
    return tls;
  }

  class Binder {
  public:
    explicit Binder(VirtualClock* clock) : prev_(current()) {
      current() = clock;
    }
    ~Binder() { current() = prev_; }
    Binder(const Binder&) = delete;
    Binder& operator=(const Binder&) = delete;

  private:
    VirtualClock* prev_;
  };

private:
  double now_us_ = 0;
  double cpu_base_us_ = 0;
  const double cpu_scale_;
};

// RAII bracket around runtime code: on entry, fold pending app compute into
// the clock; on exit, drop the host CPU the runtime consumed.
class RuntimeSection {
public:
  RuntimeSection() : clock_(VirtualClock::current()) {
    if (clock_ != nullptr) clock_->sync_cpu();
  }
  ~RuntimeSection() {
    if (clock_ != nullptr) clock_->skip_cpu();
  }
  RuntimeSection(const RuntimeSection&) = delete;
  RuntimeSection& operator=(const RuntimeSection&) = delete;

  VirtualClock* clock() const { return clock_; }

private:
  VirtualClock* clock_;
};

} // namespace omsp::sim
