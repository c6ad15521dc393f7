#ifndef SDMS_IRS_ENGINE_H_
#define SDMS_IRS_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "irs/collection.h"

namespace sdms::irs {

/// The standalone retrieval system: a registry of named collections
/// with optional directory persistence. This is the component the
/// OODBMS is loosely coupled *to*; it has no knowledge of the database.
class IrsEngine {
 public:
  IrsEngine() = default;
  IrsEngine(const IrsEngine&) = delete;
  IrsEngine& operator=(const IrsEngine&) = delete;

  /// Creates a collection with the given analyzer and retrieval model
  /// ("boolean" | "vsm" | "bm25" | "inquery").
  StatusOr<IrsCollection*> CreateCollection(const std::string& name,
                                            AnalyzerOptions analyzer_options,
                                            const std::string& model_name);

  StatusOr<IrsCollection*> GetCollection(const std::string& name);

  Status DropCollection(const std::string& name);

  size_t collection_count() const { return collections_.size(); }

  /// Persists every collection's index into `dir` (one file each plus a
  /// small manifest recording the model names). The `.idx` snapshot is
  /// the only on-disk form of a collection's postings.
  Status SaveTo(const std::string& dir) const;

  /// Restores collections saved by SaveTo into memory-resident
  /// postings.
  Status LoadFrom(const std::string& dir);

  // --- File-exchange interface -------------------------------------
  // The paper's implementation had the IRS "write the result to a file
  // which is parsed afterwards"; this pair reproduces that exchange
  // path so the architecture bench can measure its overhead against
  // the in-process API.

  /// Runs `query` on `collection` and writes "key<TAB>score" lines.
  Status SearchToFile(const std::string& collection, const std::string& query,
                      const std::string& path);

  /// Parses a result file produced by SearchToFile.
  static StatusOr<std::vector<SearchHit>> ParseResultFile(
      const std::string& path);

 private:
  std::map<std::string, std::unique_ptr<IrsCollection>> collections_;
  // Model names per collection (for the persistence manifest).
  std::map<std::string, std::string> model_names_;
};

}  // namespace sdms::irs

#endif  // SDMS_IRS_ENGINE_H_
