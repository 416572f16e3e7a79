#include "tmk/heap_mapping.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "sim/virtual_clock.hpp"
#include "tmk/diff.hpp"
#include "trace/tracer.hpp"

namespace omsp::tmk {

namespace {

int make_memfd(std::size_t bytes) {
  int fd = static_cast<int>(::syscall(SYS_memfd_create, "omsp-heap", 0u));
  OMSP_CHECK_MSG(fd >= 0, "memfd_create failed");
  OMSP_CHECK_MSG(::ftruncate(fd, static_cast<off_t>(bytes)) == 0,
                 "ftruncate failed");
  return fd;
}

int to_native(Protection p) {
  switch (p) {
  case Protection::kNone: return PROT_NONE;
  case Protection::kRead: return PROT_READ;
  case Protection::kReadWrite: return PROT_READ | PROT_WRITE;
  }
  return PROT_NONE;
}

} // namespace

HeapMapping::HeapMapping(std::size_t bytes, bool alias, ContextId owner,
                         StatsBoard& stats, const sim::CostModel* cost)
    : bytes_(round_up(bytes, kHeapPageSize)), modeled_alias_(alias),
      owner_(owner), stats_(stats), cost_(cost) {
  OMSP_CHECK(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) ==
             kHeapPageSize);
  // Both modes are memfd-backed and dual-mapped on the host: the runtime
  // mapping stays read-write so protocol handlers — which run concurrently
  // with application threads here, unlike the original's interrupting SIGIO
  // handler — can read and update page contents without ever relaxing the
  // application mapping's protections. `alias` only selects whether the
  // MODELED machine has the persistent alias (thread mode, §3.3.1) or pays
  // the original's write-enable mprotects (process mode, via
  // charge_protect).
  memfd_ = make_memfd(bytes_);
  void* app = ::mmap(nullptr, bytes_, PROT_READ, MAP_SHARED, memfd_, 0);
  OMSP_CHECK_MSG(app != MAP_FAILED, "app mapping failed");
  app_base_ = static_cast<std::uint8_t*>(app);
  void* rt =
      ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, memfd_, 0);
  OMSP_CHECK_MSG(rt != MAP_FAILED, "runtime mapping failed");
  runtime_base_ = static_cast<std::uint8_t*>(rt);
}

HeapMapping::~HeapMapping() {
  if (app_base_ != nullptr) ::munmap(app_base_, bytes_);
  if (runtime_base_ != nullptr) ::munmap(runtime_base_, bytes_);
  if (memfd_ >= 0) ::close(memfd_);
}

void HeapMapping::snapshot_page(PageId page, std::uint8_t* out) const {
  OMSP_DCHECK(page < pages());
  std::memcpy(out, runtime_base_ + std::size_t{page} * kHeapPageSize,
              kHeapPageSize);
}

void HeapMapping::protect(PageId page, Protection prot) {
  protect_host(page, 1, prot);
  charge_protect(page, prot);
}

void HeapMapping::protect_host(PageId first, std::size_t count,
                               Protection prot) {
  OMSP_DCHECK(count > 0 && first + count <= pages());
  const int rc =
      ::mprotect(app_page(first), count * kHeapPageSize, to_native(prot));
  OMSP_CHECK_MSG(rc == 0, "mprotect failed");
  host_mprotects_.fetch_add(1, std::memory_order_relaxed);
}

void HeapMapping::charge_protect(PageId page, Protection prot) {
  OMSP_DCHECK(page < pages());
  trace::record(stats_, trace::EventKind::kMprotect, owner_, page,
                static_cast<std::uint64_t>(prot));
  if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
    clock->charge(cost_->mprotect_us);
}

} // namespace omsp::tmk
