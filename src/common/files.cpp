#include "src/common/files.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace votegral {

Outcome<Bytes> ReadFileBytes(const std::string& path) {
  using Out = Outcome<Bytes>;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Out::Fail(StatusCode::kUnavailable,
                     "cannot open " + path + ": " + std::strerror(errno));
  }
  auto fail = [&](const std::string& why) {
    ::close(fd);
    return Out::Fail(StatusCode::kUnavailable, "cannot read " + path + ": " + why);
  };
  struct stat info {};
  if (::fstat(fd, &info) != 0) {
    return fail(std::strerror(errno));
  }
  if (!S_ISREG(info.st_mode)) {
    return fail("not a regular file");
  }
  Bytes bytes(static_cast<size_t>(info.st_size));
  size_t filled = 0;
  // One read returns a regular file whole; the loop only covers a signal or
  // a file cut short since the fstat.
  while (filled < bytes.size()) {
    const ssize_t got = ::read(fd, bytes.data() + filled, bytes.size() - filled);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got < 0) {
      return fail(std::strerror(errno));
    }
    if (got == 0) {
      break;
    }
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes.resize(filled);
  return Out::Ok(std::move(bytes));
}

}  // namespace votegral
