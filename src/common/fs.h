// Copyright 2026 The AmnesiaDB Authors
//
// The file-system calls of storage and durability, in one module:
// creating, listing and removing directories, reading a whole file,
// replacing a file through "<path>.tmp" + rename, removing, renaming or
// truncating a file, and fsyncing a path. The engine's crash protocol is
// the order of these calls, so no other file under src/ makes any of them
// (CI greps for it). Every call goes straight to the C library, not
// std::filesystem, so a test that interposes them at link time sees each.

#ifndef AMNESIA_COMMON_FS_H_
#define AMNESIA_COMMON_FS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace amnesia {

/// \brief Internal status naming the failed call `what` on `path`, with
/// the text of the current errno.
Status ErrnoStatus(const std::string& what, const std::string& path);

/// \brief What the file system reports about a path (symlinks followed).
struct PathInfo {
  bool exists = false;  ///< False when nothing can be found at the path.
  bool is_dir = false;
  uint64_t size = 0;    ///< File size in bytes; 0 when absent.
};

/// \brief Looks `path` up; `exists` is false when the lookup fails.
PathInfo StatPath(const std::string& path);

/// \brief Creates directory `dir` (one level) unless it already exists.
/// OK when a directory is there afterwards; InvalidArgument when something
/// other than a directory is at `dir`; Internal for any other failure.
/// Tries the creation first, so a missing directory costs one call.
Status EnsureDir(const std::string& dir);

/// \brief Lists the entry names (not paths) directly inside `dir`,
/// excluding "." and "..", in directory order. A missing `dir` yields an
/// empty list; any other failure (not a directory, no permission) is an
/// error, so a caller never mistakes an unreadable directory for an empty
/// one.
StatusOr<std::vector<std::string>> ListDirEntries(const std::string& dir);

/// \brief Removes `dir` and everything under it (symlinks are unlinked,
/// never followed). A missing directory is OK (idempotent cleanup).
Status RemoveDirRecursive(const std::string& dir);

/// \brief Removes the empty directory `dir`. A missing directory is OK.
Status RemoveDir(const std::string& dir);

/// \brief Removes the file at `path`: Internal on any failure, a missing
/// file included.
Status RemoveFile(const std::string& path);

/// \brief RemoveFile on each entry of `dir` whose name `doomed` accepts,
/// in directory order, counting each into `*removed` when given; stops at
/// the first failure. A missing `dir` removes nothing.
Status RemoveMatchingFiles(
    const std::string& dir,
    const std::function<bool(const std::string&)>& doomed,
    uint64_t* removed = nullptr);

/// \brief Atomically renames `from` over `to`: NotFound when `from` (or
/// the directory of `to`) is missing, FailedPrecondition when `to` is a
/// non-empty directory, Internal for any other failure.
Status RenamePath(const std::string& from, const std::string& to);

/// \brief Cuts the file at `path` to `size` bytes: Internal on failure.
Status TruncateFile(const std::string& path, uint64_t size);

/// \brief Reads the whole of `path` into a byte buffer (NotFound when the
/// file does not exist, InvalidArgument when it is not a regular file).
StatusOr<std::vector<uint8_t>> ReadBytesFile(const std::string& path);

/// \brief Replaces the file at `path`: `write` fills a fresh sibling
/// "<path>.tmp" through a stdio stream, which is flushed, fsynced when
/// `sync` is set, closed and renamed over `path`. When any step fails the
/// tmp file is removed and `path` keeps its previous content. So a killed
/// process leaves `path` holding the old or the new content, never a torn
/// prefix; without `sync`, a power loss may still leave it empty or torn.
/// An orphan tmp file of a killed replacement is overwritten by the next.
Status ReplaceFile(const std::string& path, bool sync,
                   const std::function<Status(std::FILE*)>& write);

/// \brief ReplaceFile with `bytes` as the new content, not fsynced.
Status WriteBytesFileAtomic(const std::vector<uint8_t>& bytes,
                            const std::string& path);

/// \brief fsyncs the file or directory at `path` (a directory's fsync makes
/// its created, renamed and unlinked entries durable). NotFound when
/// nothing is at `path`.
Status FsyncPath(const std::string& path);

}  // namespace amnesia

#endif  // AMNESIA_COMMON_FS_H_
