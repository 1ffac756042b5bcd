#include "store/snapshot.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/fault.h"
#include "store/crc32.h"
#include "store/file_io.h"

namespace easytime::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'E', 'Z', 'T', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kHeaderBytes = 24;  // magic + u64 seq + u32 crc + u32 len

}  // namespace

easytime::Status WriteSnapshot(const std::string& dir, uint64_t seq,
                               std::string_view state) {
  EASYTIME_FAULT_POINT("store.snapshot");
  if (state.size() > (size_t{1} << 31)) {
    return easytime::Status::InvalidArgument("snapshot state too large");
  }
  std::string header(kMagic, 8);
  PutU64(&header, seq);
  PutU32(&header, Crc32(state));
  PutU32(&header, static_cast<uint32_t>(state.size()));
  return WriteFileDurably(dir, HexName("snap-", seq, ".snap"),
                          {header, state});
}

std::vector<SnapshotInfo> ListSnapshots(const std::string& dir) {
  std::vector<SnapshotInfo> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    if (entry.is_regular_file() &&
        ParseHexName(entry.path().filename().string(), "snap-", ".snap",
                     &seq)) {
      out.push_back(SnapshotInfo{seq, entry.path().string()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotInfo& a, const SnapshotInfo& b) {
              return a.seq < b.seq;
            });
  return out;
}

easytime::Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir) {
  std::vector<SnapshotInfo> snaps = ListSnapshots(dir);
  uint64_t corrupt_skipped = 0;
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    auto read = ReadWholeFile(it->path);
    const std::string content = read.ok() ? std::move(*read) : std::string();
    bool ok = content.size() >= kHeaderBytes &&
              std::memcmp(content.data(), kMagic, 8) == 0 &&
              GetU64(content.data() + 8) == it->seq;
    if (ok) {
      uint32_t crc = GetU32(content.data() + 16);
      uint32_t len = GetU32(content.data() + 20);
      ok = content.size() == kHeaderBytes + len &&
           Crc32(std::string_view(content.data() + kHeaderBytes, len)) == crc;
    }
    if (!ok) {
      // Fall back to the previous image; the WAL still holds the records
      // this snapshot covered (compaction keeps segments until a snapshot
      // older than this one exists).
      ++corrupt_skipped;
      std::error_code ec;
      fs::remove(it->path, ec);
      continue;
    }
    LoadedSnapshot loaded;
    loaded.seq = it->seq;
    loaded.state = content.substr(kHeaderBytes);
    loaded.corrupt_skipped = corrupt_skipped;
    return loaded;
  }
  return easytime::Status::NotFound("no valid snapshot in " + dir);
}

easytime::Result<uint64_t> PruneSnapshots(const std::string& dir,
                                          size_t keep) {
  std::vector<SnapshotInfo> snaps = ListSnapshots(dir);
  if (snaps.size() < keep || keep == 0) return uint64_t{0};
  const size_t drop = snaps.size() - keep;
  std::error_code ec;
  for (size_t i = 0; i < drop; ++i) {
    fs::remove(snaps[i].path, ec);
    if (ec) {
      return easytime::Status::IOError("cannot remove snapshot " +
                                       snaps[i].path + ": " + ec.message());
    }
  }
  if (drop > 0) {
    EASYTIME_RETURN_IF_ERROR(SyncDir(dir));
  }
  return snaps[drop].seq;
}

}  // namespace easytime::store
