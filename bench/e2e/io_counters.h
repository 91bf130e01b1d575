// Copyright 2026 The AmnesiaDB Authors
//
// I/O counts measured from outside the engine. The registry's log.fsyncs
// counts Flush() barriers, which only fflush into the page cache; device
// flushes happen elsewhere (segment seal, partition seal and drop,
// checkpoint commit). io_counters.cc interposes fsync, fdatasync and
// msync at link time so every real device flush in the process is
// counted, whichever thread makes it.

#ifndef AMNESIA_BENCH_E2E_IO_COUNTERS_H_
#define AMNESIA_BENCH_E2E_IO_COUNTERS_H_

#include <cstdint>

namespace amnesia {
namespace e2e {

/// Interposed fsync/fdatasync/msync calls since process start.
struct DeviceFlushes {
  uint64_t calls = 0;
  uint64_t ns = 0;  ///< Wall time spent inside them, summed over threads.
};
DeviceFlushes ReadDeviceFlushes();

/// The /proc/self/io counters this benchmark reports.
struct ProcIo {
  uint64_t syscw = 0;        ///< write-family system calls.
  uint64_t write_bytes = 0;  ///< Bytes this process caused to be sent to
                             ///< storage, including dirtied mmap pages.
};
/// Returns false when /proc/self/io is unreadable.
bool ReadProcIo(ProcIo* out);

}  // namespace e2e
}  // namespace amnesia

#endif  // AMNESIA_BENCH_E2E_IO_COUNTERS_H_
