#include "coupling/architecture/control_module.h"

#include <map>

#include "common/file_util.h"
#include "common/string_util.h"

namespace sdms::coupling {

StatusOr<std::vector<ControlModule::ResultRow>> ControlModule::Run(
    const MixedQuery& query) {
  // (1) Content part: submit to the IRS; the result crosses the system
  // boundary through a file (the temporary-table analogue).
  std::string path = exchange_dir_ + "/ctrl_result_" +
                     std::to_string(file_counter_++) + ".txt";
  SDMS_RETURN_IF_ERROR(
      engine_->SearchToFile(query.irs_collection, query.irs_query, path));
  ++round_trips_;
  ++stats_.irs_queries;
  ++stats_.files_exchanged;
  auto size = FileSize(path);
  if (size.ok()) stats_.bytes_exchanged += static_cast<uint64_t>(*size);
  SDMS_ASSIGN_OR_RETURN(std::vector<irs::SearchHit> hits,
                        irs::IrsEngine::ParseResultFile(path));
  (void)RemoveFile(path);
  // Build the "temporary table": OID -> score above threshold.
  std::map<Oid, double> temp_table;
  for (const irs::SearchHit& h : hits) {
    if (h.score <= query.threshold) continue;
    if (!StartsWith(h.key, "oid:")) continue;
    SDMS_ASSIGN_OR_RETURN(Oid oid, ParseOidKey(h.key));
    temp_table.emplace(oid, h.score);
  }

  // (2) Structure part: run against the DBMS.
  SDMS_ASSIGN_OR_RETURN(oodb::vql::QueryResult structural,
                        query_engine_.Run(query.structure_vql));
  ++round_trips_;

  // (3) Join in the control module.
  std::vector<ResultRow> out;
  for (const auto& row : structural.rows) {
    if (row.empty() || !row[0].is_oid()) continue;
    auto it = temp_table.find(row[0].as_oid());
    if (it != temp_table.end()) {
      out.push_back(ResultRow{it->first, it->second});
    }
  }
  return out;
}

}  // namespace sdms::coupling
