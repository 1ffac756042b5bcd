#pragma once

/// \file file_io.h
/// \brief The storage engine's one set of file helpers: little-endian
/// integer coding, `<prefix><16 hex digits><suffix>` file names, a write
/// loop, directory fsync, whole-file reads, and the one durable-file writer
/// (tmp file → fsync → rename → directory fsync). Internal to `src/store/`
/// and the replication shipping that copies store files
/// (`cluster/replicator.cc`); not part of the store's API.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/result.h"

namespace easytime::store {

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// `<prefix><v as 16 lowercase hex digits><suffix>`, e.g. wal-….log.
std::string HexName(std::string_view prefix, uint64_t v,
                    std::string_view suffix);

/// Inverse of HexName: true and \p v set when \p name has exactly that shape.
bool ParseHexName(std::string_view name, std::string_view prefix,
                  std::string_view suffix, uint64_t* v);

/// Writes all \p n bytes to \p fd, retrying short writes and EINTR.
easytime::Status WriteFully(int fd, const char* data, size_t n);

/// fsyncs directory \p dir, making renames, creations and deletions in it
/// durable.
easytime::Status SyncDir(const std::string& dir);

easytime::Result<std::string> ReadWholeFile(const std::string& path);

/// \brief Durably (re)places `<dir>/<file>` with the concatenation of
/// \p parts: writes `<file>.tmp`, fsyncs it, renames it into place and
/// fsyncs \p dir. A crash leaves the old file or the new one, never a
/// partial image; a stray `*.tmp` is removed by RecordStore::Open.
easytime::Status WriteFileDurably(const std::string& dir,
                                  const std::string& file,
                                  std::initializer_list<std::string_view> parts);

}  // namespace easytime::store
