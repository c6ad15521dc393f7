#include "irs/engine.h"

#include <cstdio>

#include "common/fault/fault.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace sdms::irs {

StatusOr<IrsCollection*> IrsEngine::CreateCollection(
    const std::string& name, AnalyzerOptions analyzer_options,
    const std::string& model_name) {
  if (collections_.count(name) > 0) {
    return Status::AlreadyExists("IRS collection exists: " + name);
  }
  SDMS_ASSIGN_OR_RETURN(std::unique_ptr<RetrievalModel> model,
                        MakeModel(model_name));
  auto coll = std::make_unique<IrsCollection>(name, analyzer_options,
                                              std::move(model));
  IrsCollection* raw = coll.get();
  collections_.emplace(name, std::move(coll));
  model_names_[name] = model_name;
  return raw;
}

StatusOr<IrsCollection*> IrsEngine::GetCollection(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no IRS collection: " + name);
  }
  return it->second.get();
}

Status IrsEngine::DropCollection(const std::string& name) {
  if (collections_.erase(name) == 0) {
    return Status::NotFound("no IRS collection: " + name);
  }
  model_names_.erase(name);
  return Status::OK();
}

Status IrsEngine::SaveTo(const std::string& dir) const {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.save"));
  SDMS_RETURN_IF_ERROR(MakeDirs(dir));
  std::string manifest;
  for (const auto& [name, coll] : collections_) {
    auto model_it = model_names_.find(name);
    manifest += name + "\t" +
                (model_it != model_names_.end() ? model_it->second
                                                : std::string("inquery")) +
                "\n";
    // The checksum envelope turns a torn or bit-flipped index file
    // into a clean kCorruption at load instead of silent bad state.
    SDMS_ASSIGN_OR_RETURN(std::string blob, coll->Serialize());
    SDMS_RETURN_IF_ERROR(WriteFileAtomic(dir + "/" + name + ".idx",
                                         WithChecksumEnvelope(blob)));
  }
  return WriteFileAtomic(dir + "/collections.manifest",
                         WithChecksumEnvelope(manifest));
}

Status IrsEngine::LoadFrom(const std::string& dir) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.load"));
  SDMS_ASSIGN_OR_RETURN(std::string manifest_raw,
                        ReadFile(dir + "/collections.manifest"));
  SDMS_ASSIGN_OR_RETURN(std::string manifest,
                        StripChecksumEnvelope(std::move(manifest_raw)));
  for (const std::string& line : Split(manifest, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, '\t');
    if (parts.size() != 2) {
      return Status::Corruption("bad manifest line: " + line);
    }
    const std::string& name = parts[0];
    const std::string& model_name = parts[1];
    SDMS_ASSIGN_OR_RETURN(IrsCollection * coll,
                          CreateCollection(name, AnalyzerOptions{}, model_name));
    SDMS_ASSIGN_OR_RETURN(std::string raw, ReadFile(dir + "/" + name + ".idx"));
    SDMS_ASSIGN_OR_RETURN(std::string data,
                          StripChecksumEnvelope(std::move(raw)));
    SDMS_RETURN_IF_ERROR(coll->RestoreIndex(data));
  }
  return Status::OK();
}

Status IrsEngine::SearchToFile(const std::string& collection,
                               const std::string& query,
                               const std::string& path) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.exchange.write"));
  SDMS_ASSIGN_OR_RETURN(IrsCollection * coll, GetCollection(collection));
  SDMS_ASSIGN_OR_RETURN(std::vector<SearchHit> hits, coll->Search(query));
  std::string out;
  for (const SearchHit& h : hits) {
    // %.17g survives the text round-trip exactly for any double, so the
    // exchange-file detour never perturbs scores or ranking.
    out += h.key + "\t" + StrFormat("%.17g", h.score) + "\n";
  }
  // Checksummed so a torn exchange file surfaces as kCorruption when
  // parsed, never as a truncated-but-plausible result list.
  return WriteFileAtomic(path, WithChecksumEnvelope(out));
}

StatusOr<std::vector<SearchHit>> IrsEngine::ParseResultFile(
    const std::string& path) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.exchange.read"));
  SDMS_ASSIGN_OR_RETURN(std::string raw, ReadFile(path));
  if (fault::InjectCorrupt("irs.exchange.read")) fault::CorruptInPlace(raw);
  SDMS_ASSIGN_OR_RETURN(std::string data, StripChecksumEnvelope(std::move(raw)));
  std::vector<SearchHit> hits;
  for (const std::string& line : Split(data, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, '\t');
    if (parts.size() != 2) {
      return Status::Corruption("bad IRS result line: " + line);
    }
    SearchHit h;
    h.key = parts[0];
    StatusOr<double> score = ParseDouble(parts[1]);
    if (!score.ok()) {
      return Status::Corruption("bad IRS score: " + parts[1]);
    }
    h.score = *score;
    hits.push_back(std::move(h));
  }
  return hits;
}

}  // namespace sdms::irs
