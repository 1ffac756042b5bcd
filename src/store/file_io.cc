#include "store/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

namespace easytime::store {

namespace fs = std::filesystem;

std::string HexName(std::string_view prefix, uint64_t v,
                    std::string_view suffix) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(v));
  std::string name(prefix);
  name.append(hex, 16);
  name.append(suffix);
  return name;
}

bool ParseHexName(std::string_view name, std::string_view prefix,
                  std::string_view suffix, uint64_t* v) {
  if (name.size() != prefix.size() + 16 + suffix.size() ||
      name.substr(0, prefix.size()) != prefix ||
      name.substr(prefix.size() + 16) != suffix) {
    return false;
  }
  uint64_t out = 0;
  for (char c : name.substr(prefix.size(), 16)) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    out = (out << 4) | static_cast<uint64_t>(d);
  }
  *v = out;
  return true;
}

easytime::Status WriteFully(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return easytime::Status::IOError(std::string("write failed: ") +
                                       std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return easytime::Status::OK();
}

easytime::Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return easytime::Status::IOError("cannot open directory for fsync: " +
                                     dir);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return easytime::Status::IOError("directory fsync failed: " + dir);
  }
  return easytime::Status::OK();
}

easytime::Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return easytime::Status::IOError("cannot read " + path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return easytime::Status::IOError("read failed: " + path);
  return content;
}

easytime::Status WriteFileDurably(
    const std::string& dir, const std::string& file,
    std::initializer_list<std::string_view> parts) {
  const std::string path = dir + "/" + file;
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return easytime::Status::IOError("cannot create " + tmp + ": " +
                                     std::strerror(errno));
  }
  easytime::Status st = easytime::Status::OK();
  for (std::string_view part : parts) {
    if (st.ok()) st = WriteFully(fd, part.data(), part.size());
  }
  if (st.ok() && ::fsync(fd) != 0) {
    st = easytime::Status::IOError("fsync failed for " + tmp + ": " +
                                   std::strerror(errno));
  }
  ::close(fd);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = easytime::Status::IOError("cannot rename " + tmp + ": " +
                                   std::strerror(errno));
  }
  if (!st.ok()) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return st;
  }
  return SyncDir(dir);
}

}  // namespace easytime::store
