#pragma once
// End-of-run trace merge: every rank ships its span (and message-record)
// buffer to rank 0 through the comm layer's collectives, mirroring what
// real MPI ranks would do (MPI_Allreduce for the size, MPI_Gather for the
// payload).
//
// Header-only and duck-typed on the Comm interface so obs does not link
// against minimpi (minimpi itself records spans, which would otherwise be
// a dependency cycle).

#include <cstring>
#include <vector>

#include "obs/msgtrace.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace dpgen::obs {

/// Serializes trivially-copyable records (Span, MsgRecord) into the wire
/// format [count, T...].
template <typename T>
std::vector<std::uint8_t> serialize_records(const std::vector<T>& records) {
  std::vector<std::uint8_t> out(sizeof(std::uint64_t) +
                                records.size() * sizeof(T));
  const std::uint64_t count = records.size();
  std::memcpy(out.data(), &count, sizeof(count));
  if (!records.empty())
    std::memcpy(out.data() + sizeof(count), records.data(),
                records.size() * sizeof(T));
  return out;
}

/// Inverse of serialize_records; tolerates trailing padding bytes.
template <typename T>
std::vector<T> deserialize_records(const std::uint8_t* data,
                                   std::size_t bytes) {
  DPGEN_CHECK(bytes >= sizeof(std::uint64_t), "malformed record buffer");
  std::uint64_t count = 0;
  std::memcpy(&count, data, sizeof(count));
  DPGEN_CHECK(bytes >= sizeof(count) + count * sizeof(T),
              "record buffer length mismatch");
  std::vector<T> records(count);
  if (count)
    std::memcpy(records.data(), data + sizeof(count), count * sizeof(T));
  return records;
}

/// Gathers every rank's records of `tracer` (the span Tracer, or the
/// MsgTracer, whose collect_rank keeps the records a rank *received*) to
/// rank 0, which adds them to the tracer's merged set.  Collective: every
/// rank of the communicator must call it (run_node does, after its final
/// barrier).  CommT needs rank(), allreduce_max(double) and gather(root,
/// data, bytes, out) — the shape of both minimpi::Comm and an MPI wrapper.
template <typename TracerT, typename CommT>
void gather_and_merge(TracerT& tracer, CommT& comm) {
  using Record = typename decltype(tracer.collect_rank(0))::value_type;
  std::vector<std::uint8_t> mine =
      serialize_records(tracer.collect_rank(comm.rank()));
  // Ranks trace different amounts; gather needs one fixed size, so pad
  // everyone to the largest buffer (the count prefix marks the real end).
  const auto max_bytes = static_cast<std::size_t>(
      comm.allreduce_max(static_cast<double>(mine.size())));
  mine.resize(max_bytes, 0);
  std::vector<std::uint8_t> all;
  comm.gather(0, mine.data(), mine.size(), &all);
  if (comm.rank() == 0) {
    for (std::size_t off = 0; off < all.size(); off += max_bytes)
      tracer.add_merged(
          deserialize_records<Record>(all.data() + off, max_bytes));
  }
}

}  // namespace dpgen::obs
