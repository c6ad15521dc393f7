#ifndef SDMS_COMMON_FILE_UTIL_H_
#define SDMS_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace sdms {

/// Reads the whole file at `path` into a string.
StatusOr<std::string> ReadFile(const std::string& path);

/// Writes `data` to `path` atomically (write temp + fsync + rename +
/// directory fsync). The temp file is removed on every error path;
/// only an injected crash fault (simulated process death) leaves it
/// behind, which is exactly what crash-recovery tests exercise.
Status WriteFileAtomic(const std::string& path, std::string_view data);

/// True if a file or directory exists at `path`.
bool PathExists(const std::string& path);

/// Creates directory `path` (and parents) if missing.
Status MakeDirs(const std::string& path);

/// Removes the file at `path` if present.
Status RemoveFile(const std::string& path);

/// Size in bytes of the file at `path`, or NotFound.
StatusOr<int64_t> FileSize(const std::string& path);

/// Removes every regular file directly in `dir` whose name starts with
/// `prefix` and ends with `suffix` (an empty pattern matches
/// anything). Returns the number removed; a missing directory removes
/// nothing. Used by crash recovery to sweep temp/exchange files a
/// failed run left behind.
StatusOr<size_t> RemoveMatchingFiles(const std::string& dir,
                                     const std::string& prefix,
                                     const std::string& suffix);

/// fsyncs the directory containing `path` so a completed rename is
/// durable. No-op when fsync is disabled (SDMS_NO_FSYNC).
Status SyncParentDir(const std::string& path);

/// False when SDMS_NO_FSYNC is set (bench escape hatch): fsync calls
/// in WriteFileAtomic and the WAL are skipped.
bool FsyncEnabled();

/// Wraps `payload` in a checksum envelope:
///   "SDMSCHK1\n<crc32 hex>\n<payload size>\n" + payload
/// so torn or bit-flipped files are detected as kCorruption instead of
/// being parsed as silent bad state.
std::string WithChecksumEnvelope(std::string_view payload);

/// Verifies and strips a checksum envelope, returning the payload;
/// kCorruption on a missing magic (empty or unenveloped data) or on a
/// size or CRC mismatch.
StatusOr<std::string> StripChecksumEnvelope(std::string data);

}  // namespace sdms

#endif  // SDMS_COMMON_FILE_UTIL_H_
