#include "recovery/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "recovery/fault.h"

namespace exdl::recovery {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

bool Injected(WriteFaults faults, WriteFaults owner, const char* site) {
  return faults == owner && FaultPlan::Global().armed() &&
         FaultPlan::Global().ShouldFail(site);
}

Status InjectedError(const char* site) {
  return Status::Internal(std::string("injected fault at ") + site);
}

}  // namespace

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

Status AtomicWriteFile(const std::string& path, std::string_view data,
                       WriteFaults faults) {
  const std::string tmp = path + ".tmp";
  if (Injected(faults, WriteFaults::kSnapshot, "snapshot.open")) {
    return InjectedError("snapshot.open");
  }
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot open", tmp);

  // An injected write fault is a *short* write: half the payload lands on
  // disk, then the write "fails" — the torn temp file stays behind for the
  // loader-hardening tests to chew on.
  if (Injected(faults, WriteFaults::kSnapshot, "snapshot.write")) {
    const bool written = WriteAll(fd, data.data(), data.size() / 2);
    ::close(fd);
    return written ? InjectedError("snapshot.write")
                   : IoError("write failed for", tmp);
  }
  if (!WriteAll(fd, data.data(), data.size())) {
    const Status failed = IoError("write failed for", tmp);
    ::close(fd);
    return failed;
  }

  if (Injected(faults, WriteFaults::kSnapshot, "snapshot.fsync")) {
    ::close(fd);
    return InjectedError("snapshot.fsync");
  }
  if (::fsync(fd) != 0) {
    const Status failed = IoError("fsync failed for", tmp);
    ::close(fd);
    return failed;
  }
  if (::close(fd) != 0) return IoError("close failed for", tmp);

  // A torn rename: the temp file is complete and durable, but `path` never
  // learns about it — exactly the state after a crash between fsync and
  // rename.
  if (Injected(faults, WriteFaults::kSnapshot, "snapshot.rename")) {
    return InjectedError("snapshot.rename");
  }
  if (Injected(faults, WriteFaults::kCompaction, "factlog.compact_rename")) {
    return InjectedError("factlog.compact_rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError("cannot rename", tmp);
  }
  return Status::Ok();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("read failed for " + path);
  }
  return buffer.str();
}

}  // namespace exdl::recovery
