#include "tmk/fault_registry.hpp"

#include <csignal>
#include <ctime>
#include <sys/mman.h>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/check.hpp"

namespace omsp::tmk {

namespace {

struct Region {
  std::uintptr_t base;
  std::uintptr_t end;
  FaultTarget* target;
};

// The handler must read the region table without taking a lock that a
// faulting thread could already hold. Registration is rare (system startup/
// shutdown) and never concurrent with faults on the affected region, so we
// use a small fixed table with a seqlock-free scheme: writers hold a mutex
// and update entries; the handler scans entries whose `target` is non-null.
// An entry is published by writing `target` last and retired by clearing
// `target` first.
// Sized for the topology sweeps: process mode registers one region per
// context, and a topology spec can ask for hundreds of nodes (flat:256x2 in
// process mode = 512 contexts). The handler's scan stays cheap — the table
// is ~24 bytes per entry and live entries cluster at the front.
constexpr std::size_t kMaxRegions = 1024;
Region g_regions[kMaxRegions]; // zero-initialized
std::mutex g_mutex;
struct sigaction g_old_action;
bool g_handler_installed = false;
std::size_t g_live = 0;

bool fault_is_write(const ucontext_t* uc) {
#if defined(__x86_64__)
  // Bit 1 of the page-fault error code: set for write accesses.
  return (uc->uc_mcontext.gregs[REG_ERR] & 0x2) != 0;
#else
  (void)uc;
  // Conservative: treat as write. The protocol is still correct; read/write
  // fault split in the stats is x86-only.
  return true;
#endif
}

// Runs in SIGSEGV context. Everything downstream of on_fault must stay
// signal-safe for the *synchronous* faults we take on protected DSM pages:
// the protocol's own locks are fine (a faulting thread never holds them at a
// shared-heap access), and trace emission is a lock-free SPSC ring push — the
// ring itself is pre-registered by Tracer::bind_thread before any fault.
void segv_handler(int signo, siginfo_t* info, void* ucontext) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  for (auto& region : g_regions) {
    FaultTarget* target = __atomic_load_n(&region.target, __ATOMIC_ACQUIRE);
    if (target == nullptr) continue;
    if (addr >= region.base && addr < region.end) {
      target->on_fault(info->si_addr,
                       fault_is_write(static_cast<ucontext_t*>(ucontext)));
      return;
    }
  }
  // Not ours: restore previous disposition and re-raise so the process dies
  // with a normal segfault (and a usable core/stack).
  std::fprintf(stderr,
               "omsp: SIGSEGV at %p outside any DSM region — re-raising\n",
               info->si_addr);
  ::sigaction(signo, &g_old_action, nullptr);
  ::raise(signo);
}

} // namespace

void FaultRegistry::add_region(void* base, std::size_t bytes,
                               FaultTarget* target) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_handler_installed) {
    struct sigaction sa {};
    sa.sa_sigaction = segv_handler;
    sa.sa_flags = SA_SIGINFO | SA_NODEFER;
    sigemptyset(&sa.sa_mask);
    OMSP_CHECK(::sigaction(SIGSEGV, &sa, &g_old_action) == 0);
    g_handler_installed = true;
  }
  for (auto& region : g_regions) {
    if (__atomic_load_n(&region.target, __ATOMIC_RELAXED) == nullptr) {
      region.base = reinterpret_cast<std::uintptr_t>(base);
      region.end = region.base + bytes;
      __atomic_store_n(&region.target, target, __ATOMIC_RELEASE);
      ++g_live;
      return;
    }
  }
  OMSP_CHECK_MSG(false, "too many registered DSM regions");
}

void FaultRegistry::remove_region(void* base) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto b = reinterpret_cast<std::uintptr_t>(base);
  for (auto& region : g_regions) {
    if (__atomic_load_n(&region.target, __ATOMIC_RELAXED) != nullptr &&
        region.base == b) {
      __atomic_store_n(&region.target, static_cast<FaultTarget*>(nullptr),
                       __ATOMIC_RELEASE);
      --g_live;
      if (g_live == 0 && g_handler_installed) {
        ::sigaction(SIGSEGV, &g_old_action, nullptr);
        g_handler_installed = false;
      }
      return;
    }
  }
  OMSP_CHECK_MSG(false, "removing unknown DSM region");
}

std::size_t FaultRegistry::region_count() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_live;
}

namespace {

struct CalibrationTarget final : FaultTarget {
  void on_fault(void* addr, bool) override {
    auto base = reinterpret_cast<std::uintptr_t>(addr) & ~std::uintptr_t{4095};
    ::mprotect(reinterpret_cast<void*>(base), 4096, PROT_READ | PROT_WRITE);
  }
};

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

} // namespace

double FaultRegistry::fault_trap_overhead_us() {
  static const double overhead = [] {
    void* page = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED) return 0.0;
    CalibrationTarget target;
    FaultRegistry::add_region(page, 4096, &target);
    auto* c = static_cast<volatile char*>(page);
    constexpr int kIters = 400;
    // Warm up, then measure a protect/fault/store cycle...
    for (int i = 0; i < 20; ++i) {
      ::mprotect(page, 4096, PROT_NONE);
      *c = 1;
    }
    double t0 = thread_cpu_us();
    for (int i = 0; i < kIters; ++i) {
      ::mprotect(page, 4096, PROT_NONE);
      *c = 1;
    }
    const double with_fault = (thread_cpu_us() - t0) / kIters;
    // ...against the same work without the trap (the handler's mprotect is
    // mirrored by the explicit re-enable here, so the difference isolates
    // trap + delivery + sigreturn + retry).
    t0 = thread_cpu_us();
    for (int i = 0; i < kIters; ++i) {
      ::mprotect(page, 4096, PROT_NONE);
      ::mprotect(page, 4096, PROT_READ | PROT_WRITE);
      *c = 1;
    }
    const double without_fault = (thread_cpu_us() - t0) / kIters;
    FaultRegistry::remove_region(page);
    ::munmap(page, 4096);
    return with_fault > without_fault ? with_fault - without_fault : 0.0;
  }();
  return overhead;
}

} // namespace omsp::tmk
