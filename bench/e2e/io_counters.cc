// Copyright 2026 The AmnesiaDB Authors

#include "io_counters.h"

#include <dlfcn.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "tracer.h"

namespace amnesia {
namespace e2e {
namespace {

// Relaxed atomics: the checkpoint writer thread flushes concurrently with
// the batch loop, and readers only need totals once the run settles.
std::atomic<uint64_t> g_flush_calls{0};
std::atomic<uint64_t> g_flush_ns{0};

template <typename Fn>
Fn Real(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

void Count(int64_t start_ns) {
  g_flush_calls.fetch_add(1, std::memory_order_relaxed);
  g_flush_ns.fetch_add(static_cast<uint64_t>(NowNs() - start_ns),
                       std::memory_order_relaxed);
}

}  // namespace

DeviceFlushes ReadDeviceFlushes() {
  DeviceFlushes out;
  out.calls = g_flush_calls.load(std::memory_order_relaxed);
  out.ns = g_flush_ns.load(std::memory_order_relaxed);
  return out;
}

bool ReadProcIo(ProcIo* out) {
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return false;
  char key[64];
  unsigned long long value = 0;
  int found = 0;
  while (std::fscanf(f, "%63[^:]: %llu\n", key, &value) == 2) {
    if (std::strcmp(key, "syscw") == 0) {
      out->syscw = value;
      ++found;
    } else if (std::strcmp(key, "write_bytes") == 0) {
      out->write_bytes = value;
      ++found;
    }
  }
  std::fclose(f);
  return found == 2;
}

}  // namespace e2e
}  // namespace amnesia

// Link-time interposers. The engine is a static library linked into this
// executable, so its calls bind to these definitions; each forwards to
// the C library's through dlsym(RTLD_NEXT).
extern "C" {

int fsync(int fd) {
  static const auto real = amnesia::e2e::Real<int (*)(int)>("fsync");
  const int64_t start = amnesia::e2e::NowNs();
  const int rc = real(fd);
  amnesia::e2e::Count(start);
  return rc;
}

int fdatasync(int fd) {
  static const auto real = amnesia::e2e::Real<int (*)(int)>("fdatasync");
  const int64_t start = amnesia::e2e::NowNs();
  const int rc = real(fd);
  amnesia::e2e::Count(start);
  return rc;
}

int msync(void* addr, size_t length, int flags) {
  static const auto real =
      amnesia::e2e::Real<int (*)(void*, size_t, int)>("msync");
  const int64_t start = amnesia::e2e::NowNs();
  const int rc = real(addr, length, flags);
  amnesia::e2e::Count(start);
  return rc;
}

}  // extern "C"
