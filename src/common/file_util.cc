#include "common/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/fault/fault.h"
#include "common/string_util.h"

namespace sdms {

namespace fs = std::filesystem;

namespace {

/// CRC-32 (zlib polynomial, reflected), table-driven.
uint32_t Crc32Of(std::string_view data) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (unsigned char ch : data) {
    crc = table[(crc ^ ch) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

constexpr char kEnvelopeMagic[] = "SDMSCHK1\n";

}  // namespace

bool FsyncEnabled() {
  static const bool enabled = std::getenv("SDMS_NO_FSYNC") == nullptr;
  return enabled;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("file.read"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, got);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read failed for " + path);
  if (fault::InjectCorrupt("file.read")) fault::CorruptInPlace(out);
  return out;
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("file.atomic_write"));
  std::string corrupted;
  if (fault::InjectCorrupt("file.atomic_write")) {
    corrupted.assign(data);
    fault::CorruptInPlace(corrupted);
    data = corrupted;
  }
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  ok = (std::fflush(f) == 0) && ok;
  // The rename is only atomic-durable if the temp file's contents hit
  // disk before it moves into place.
  if (ok && FsyncEnabled()) ok = ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("write failed for " + tmp);
  }
  // Simulated process death between writing the temp file and the
  // rename: the destination is untouched, the orphan .tmp remains.
  SDMS_RETURN_IF_ERROR(fault::InjectFault("file.atomic_write.before_rename"));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  // Simulated process death after the rename: the new file is in
  // place even though the writer never observed success.
  SDMS_RETURN_IF_ERROR(fault::InjectFault("file.atomic_write.after_rename"));
  return SyncParentDir(path);
}

bool PathExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Status MakeDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IoError("mkdir " + path + ": " + ec.message());
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IoError("remove " + path + ": " + ec.message());
  return Status::OK();
}

StatusOr<int64_t> FileSize(const std::string& path) {
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  if (ec) return Status::NotFound("file_size " + path + ": " + ec.message());
  return static_cast<int64_t>(size);
}

StatusOr<size_t> RemoveMatchingFiles(const std::string& dir,
                                     const std::string& prefix,
                                     const std::string& suffix) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return static_cast<size_t>(0);  // Missing dir: nothing to sweep.
  size_t removed = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    std::string name = entry.path().filename().string();
    if (!prefix.empty() && !StartsWith(name, prefix)) continue;
    if (!suffix.empty() &&
        (name.size() < suffix.size() ||
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
             0)) {
      continue;
    }
    if (fs::remove(entry.path(), ec) && !ec) ++removed;
  }
  return removed;
}

Status SyncParentDir(const std::string& path) {
  if (!FsyncEnabled()) return Status::OK();
  fs::path dir = fs::path(path).parent_path();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir " + dir.string() + ": " +
                           std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync dir " + dir.string() + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

std::string WithChecksumEnvelope(std::string_view payload) {
  std::string out = kEnvelopeMagic;
  out += StrFormat("%08x", Crc32Of(payload));
  out += "\n" + std::to_string(payload.size()) + "\n";
  out.append(payload.data(), payload.size());
  return out;
}

StatusOr<std::string> StripChecksumEnvelope(std::string data) {
  if (!StartsWith(data, kEnvelopeMagic)) {
    // Every writer envelopes its file, so a missing magic means an
    // empty, truncated or foreign file.
    return Status::Corruption("checksum envelope: missing magic");
  }
  size_t pos = sizeof(kEnvelopeMagic) - 1;
  size_t crc_end = data.find('\n', pos);
  if (crc_end == std::string::npos) {
    return Status::Corruption("checksum envelope: missing CRC line");
  }
  size_t size_end = data.find('\n', crc_end + 1);
  if (size_end == std::string::npos) {
    return Status::Corruption("checksum envelope: missing size line");
  }
  uint32_t crc = 0;
  uint64_t size = 0;
  try {
    crc = static_cast<uint32_t>(
        std::stoul(data.substr(pos, crc_end - pos), nullptr, 16));
    size = std::stoull(data.substr(crc_end + 1, size_end - crc_end - 1));
  } catch (...) {
    return Status::Corruption("checksum envelope: malformed header");
  }
  std::string payload = data.substr(size_end + 1);
  if (payload.size() != size) {
    return Status::Corruption(
        "checksum envelope: size mismatch (torn file?): expected " +
        std::to_string(size) + ", got " + std::to_string(payload.size()));
  }
  if (Crc32Of(payload) != crc) {
    return Status::Corruption("checksum envelope: CRC mismatch");
  }
  return payload;
}

}  // namespace sdms
