// Copyright 2026 The AmnesiaDB Authors

#include "common/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace amnesia {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

PathInfo StatPath(const std::string& path) {
  PathInfo info;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return info;
  info.exists = true;
  info.is_dir = S_ISDIR(st.st_mode);
  info.size = static_cast<uint64_t>(st.st_size);
  return info;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return Status::OK();
  if (errno != EEXIST) return ErrnoStatus("mkdir", dir);
  if (!StatPath(dir).is_dir) {
    return Status::InvalidArgument("'" + dir +
                                   "' exists but is not a directory");
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> ListDirEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return names;
    return ErrnoStatus("opendir", dir);
  }
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  return names;
}

Status RemoveDirRecursive(const std::string& dir) {
  AMNESIA_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                           ListDirEntries(dir));
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(path));
    } else if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink", path);
    }
  }
  return RemoveDir(dir);
}

Status RemoveDir(const std::string& dir) {
  if (::rmdir(dir.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("rmdir", dir);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) != 0) return ErrnoStatus("remove", path);
  return Status::OK();
}

Status RemoveMatchingFiles(
    const std::string& dir,
    const std::function<bool(const std::string&)>& doomed,
    uint64_t* removed) {
  AMNESIA_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                           ListDirEntries(dir));
  for (const std::string& name : names) {
    if (!doomed(name)) continue;
    AMNESIA_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
    if (removed != nullptr) ++*removed;
  }
  return Status::OK();
}

Status RenamePath(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) == 0) return Status::OK();
  const StatusCode code =
      errno == ENOENT                       ? StatusCode::kNotFound
      : errno == ENOTEMPTY || errno == EEXIST ? StatusCode::kFailedPrecondition
                                              : StatusCode::kInternal;
  return Status(code, ErrnoStatus("rename '" + from + "' to", to).message());
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate", path);
  }
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> ReadBytesFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  // Size from fstat, not fseek/ftell: a directory opens fine, but its
  // "end" offset is no file size, and allocating it would abort.
  struct stat st {};
  if (::fstat(fileno(f), &st) != 0) {
    std::fclose(f);
    return Status::Internal("cannot stat '" + path + "'");
  }
  if (!S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::InvalidArgument("'" + path + "' is not a regular file");
  }
  std::vector<uint8_t> buffer(static_cast<size_t>(st.st_size));
  const size_t read = std::fread(buffer.data(), 1, buffer.size(), f);
  std::fclose(f);
  if (read != buffer.size()) {
    return Status::Internal("short read from '" + path + "'");
  }
  return buffer;
}

Status ReplaceFile(const std::string& path, bool sync,
                   const std::function<Status(std::FILE*)>& write) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("create", tmp);
  Status status = write(f);
  // fflush drains stdio to the page cache; with `sync`, fsync orders the
  // data blocks before the rename's metadata, so a power loss after the
  // rename cannot surface an empty file under `path`.
  if (status.ok() && std::fflush(f) != 0) status = ErrnoStatus("write", tmp);
  if (status.ok() && sync && ::fsync(fileno(f)) != 0) {
    status = ErrnoStatus("fsync", tmp);
  }
  if (std::fclose(f) != 0 && status.ok()) status = ErrnoStatus("close", tmp);
  if (status.ok()) status = RenamePath(tmp, path);
  if (!status.ok()) (void)RemoveFile(tmp);
  return status;
}

Status WriteBytesFileAtomic(const std::vector<uint8_t>& bytes,
                            const std::string& path) {
  return ReplaceFile(path, /*sync=*/false, [&](std::FILE* f) {
    if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      return ErrnoStatus("write", path);
    }
    return Status::OK();
  });
}

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such path '" + path + "'");
    return ErrnoStatus("open", path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync", path);
  return Status::OK();
}

}  // namespace amnesia
