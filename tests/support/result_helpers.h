// Helpers shared by the result-path tests: a consumer that keeps whole
// records, and a sweep run that returns the long-format CSV the shipped
// writer streams.

#ifndef WLANSIM_TESTS_SUPPORT_RESULT_HELPERS_H_
#define WLANSIM_TESTS_SUPPORT_RESULT_HELPERS_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/result_consumer.h"
#include "runner/sweep.h"

namespace wlansim {

// Keeps every record a campaign delivers, whole, in replication order.
class RecordCollector final : public ResultConsumer {
 public:
  void OnRecord(const ReplicationRecord& record) override { records.push_back(record); }

  std::vector<ReplicationRecord> records;
};

// Runs the sweep with a StreamingSweepCsvWriter attached and returns the
// CSV it wrote; `result`, when given, receives the sweep's result.
inline std::string SweepCsv(SweepOptions options, SweepResult* result = nullptr) {
  std::ostringstream out;
  StreamingSweepCsvWriter writer(out);
  options.point_sinks.push_back(&writer);
  SweepResult ran = RunSweepCampaign(options);
  if (result != nullptr) {
    *result = std::move(ran);
  }
  return out.str();
}

}  // namespace wlansim

#endif  // WLANSIM_TESTS_SUPPORT_RESULT_HELPERS_H_
