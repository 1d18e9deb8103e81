#include "runner/result_consumer.h"

#include <stdexcept>
#include <utility>

namespace wlansim {

ResultPipeline::ResultPipeline(CampaignManifest manifest) : manifest_(std::move(manifest)) {}

void ResultPipeline::AddConsumer(ResultConsumer* consumer) {
  consumers_.push_back(consumer);
}

void ResultPipeline::Begin() {
  for (ResultConsumer* consumer : consumers_) {
    consumer->BeginCampaign(manifest_);
  }
}

void ResultPipeline::Deliver(ReplicationRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t index = record.replication;
  if (index >= manifest_.replications) {
    throw std::out_of_range("replication index " + std::to_string(index) +
                            " outside campaign of " + std::to_string(manifest_.replications));
  }
  if (index < next_ || pending_.count(index) != 0) {
    throw std::logic_error("replication " + std::to_string(index) +
                           " delivered twice (double-set replication index)");
  }
  pending_.emplace(index, std::move(record));
  max_pending_ = std::max(max_pending_, pending_.size());
  // Flush the in-order prefix. Consumers run under the lock: delivery is
  // serialized and ordered, which is exactly the contract they rely on.
  while (!pending_.empty() && pending_.begin()->first == next_) {
    const ReplicationRecord& head = pending_.begin()->second;
    for (ResultConsumer* consumer : consumers_) {
      consumer->OnRecord(head);
    }
    pending_.erase(pending_.begin());
    ++next_;
  }
}

void ResultPipeline::End() {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_ != manifest_.replications) {
    throw std::logic_error("campaign ended with " + std::to_string(next_) + " of " +
                           std::to_string(manifest_.replications) + " replications delivered");
  }
  for (ResultConsumer* consumer : consumers_) {
    consumer->EndCampaign();
  }
}

size_t ResultPipeline::max_reorder_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_pending_;
}

void StreamingCsvWriter::BeginCampaign(const CampaignManifest& manifest) {
  (void)manifest;
  if (begun_) {
    throw std::logic_error(
        "StreamingCsvWriter attached to a second campaign: one writer, one stream");
  }
  begun_ = true;
}

void StreamingCsvWriter::OnRecord(const ReplicationRecord& record) {
  if (!wrote_header_) {
    columns_.reserve(record.metrics.size());
    std::string header = "replication";
    for (const auto& [name, value] : record.metrics) {
      columns_.push_back(name);
      header += ",";
      header += CsvField(name);
    }
    header += "\n";
    out_ << header;
    wrote_header_ = true;
  }
  // The header is already on disk, so a drifting metric set cannot be
  // accommodated — fail loudly instead of writing misaligned rows.
  if (record.metrics.size() != columns_.size()) {
    throw std::runtime_error("replication " + std::to_string(record.replication) + " reports " +
                             std::to_string(record.metrics.size()) + " metrics; the stream header"
                             " fixed " + std::to_string(columns_.size()));
  }
  std::string row = std::to_string(record.replication);
  auto it = record.metrics.begin();
  for (const std::string& column : columns_) {
    if (it->first != column) {
      throw std::runtime_error("replication " + std::to_string(record.replication) +
                               " reports metric '" + it->first +
                               "' where the stream header has '" + column + "'");
    }
    row += ",";
    row += CsvNum(it->second);
    ++it;
  }
  row += "\n";
  out_ << row;
}

void StreamingCsvWriter::EndCampaign() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("streaming CSV write failed");
  }
}

void ExactAggregator::OnRecord(const ReplicationRecord& record) {
  for (const auto& [name, value] : record.metrics) {
    columns_[name].push_back(value);
  }
}

std::vector<MetricAggregate> ExactAggregator::Aggregates() const {
  std::vector<MetricAggregate> out;
  out.reserve(columns_.size());
  for (const auto& [name, values] : columns_) {
    out.push_back(ExactAggregate(name, values));
  }
  return out;
}

void OnlineAggregator::OnRecord(const ReplicationRecord& record) {
  for (const auto& [name, value] : record.metrics) {
    MetricState& state = metrics_.try_emplace(name).first->second;
    state.summary.Add(value);
    state.p50.Add(value);
    state.p95.Add(value);
  }
}

std::vector<MetricAggregate> OnlineAggregator::Aggregates() const {
  std::vector<MetricAggregate> out;
  out.reserve(metrics_.size());
  for (const auto& [name, state] : metrics_) {
    MetricAggregate agg = SummaryAggregate(name, state.summary);
    agg.p50 = state.p50.Value();
    agg.p95 = state.p95.Value();
    out.push_back(std::move(agg));
  }
  return out;
}

std::unique_ptr<AggregatingConsumer> MakeAggregator(bool stream) {
  if (stream) {
    return std::make_unique<OnlineAggregator>();
  }
  return std::make_unique<ExactAggregator>();
}

}  // namespace wlansim
