// Readers and out-of-core operations over WLSR binary result files
// (binary_format.h): parse + CRC-verify, column-at-a-time decoding, shard
// merge, byte-identical CSV export, and exact aggregation. These back the
// wlansim_results CLI and the format's tests.
//
// The operations never materialize the row set: decoding walks one extent
// (kExtentRows rows) or one column at a time, so aggregating a
// 10^6-replication file costs one metric column of memory, not the table.

#ifndef WLANSIM_RESULTS_BINARY_READER_H_
#define WLANSIM_RESULTS_BINARY_READER_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "results/binary_format.h"
#include "runner/metric_recorder.h"
#include "runner/result_sink.h"

namespace wlansim {

// One parsed group: its decoded header plus the raw CRC-covered body bytes
// (kept verbatim so a merge can re-frame groups byte-identically without
// re-encoding them).
struct BinaryGroup {
  BinaryGroupHeader header;
  std::string body;          // full body: encoded header + extents
  size_t extents_offset = 0; // where the extent data starts inside body
};

struct BinaryResultsFile {
  BinaryFileHeader header;
  std::vector<BinaryGroup> groups;  // file order (ascending point_index)
};

// Parses a whole serialized file, verifying the magic, version, per-group
// framing and CRCs. Throws std::runtime_error with a "truncated ..." /
// "corrupt ..." / "not a wlansim binary results file" message on damage.
BinaryResultsFile ParseBinaryResults(const std::string& bytes);

// Reads `path` fully and parses it. Throws std::runtime_error when the file
// cannot be opened.
BinaryResultsFile ReadBinaryResultsFile(const std::string& path);

// Decodes scalar column `column` (index into header.scalar_names) of one
// group: header.n_rows values in replication order.
void ReadScalarColumn(const BinaryGroup& group, size_t column, std::vector<double>* out);

// Decodes distribution column `dist` (index into header.dist_names) of one
// group: header.n_rows full snapshots, exact bin counts included.
void ReadDistColumn(const BinaryGroup& group, size_t dist, std::vector<DistributionSnapshot>* out);

// Calls visit(row_index, values) for every row of the group in replication
// order, decoding extent by extent; `values` is aligned with
// header.scalar_names and reused between calls.
void VisitScalarRows(const BinaryGroup& group,
                     const std::function<void(uint64_t, const std::vector<double>&)>& visit);

// Human-readable schema + group summary (the `inspect` subcommand).
std::string InspectBinary(const BinaryResultsFile& file);

// Merges sweep shard files into one file on `out`, groups ordered by
// ascending grid point index. Inputs must agree on every header field
// except the group count; duplicate point indices and campaign-kind files
// are rejected. When the shards cover the whole grid, the merged bytes are
// identical to the file an unsharded run writes.
void MergeBinaryFiles(const std::vector<std::string>& input_paths, std::ostream& out);

// Exports back to the text formats, byte-identical to what the run itself
// would have written: a campaign file reproduces the per-replication CSV
// (StreamingCsvWriter), a sweep file reproduces the long-format CSV
// (StreamingSweepCsvWriter), replaying the exact or online aggregation
// according to the header's streamed flag.
std::string ExportBinaryCsv(const BinaryResultsFile& file);

// Aggregates across files without materializing rows: per metric (and per
// grid point for sweeps), ExactAggregate over the concatenated columns, in
// file order. Output is AggregatesToCsv for campaigns and the long-format
// CSV for sweeps — always with exact quantile labels, because the stored
// records are exact whatever aggregation the original run used. Files must
// share scenario, kind, and schema-bearing header fields.
std::string AggregateBinary(const std::vector<BinaryResultsFile>& files);

// The same operation over borrowed files (none may be null). This is the
// overload the query server calls: its catalog owns the parsed files, and
// served answers must be byte-identical to the offline path, so both
// spellings run literally the same code.
std::string AggregateBinary(const std::vector<const BinaryResultsFile*>& files);

}  // namespace wlansim

#endif  // WLANSIM_RESULTS_BINARY_READER_H_
