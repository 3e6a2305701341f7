// Fuzz harness for snapshot header validation (store/format.hpp):
// decode_snapshot_header is the single validator MappedSnapshot::open
// funnels untrusted fixed headers through, mapped or buffered.
//
// Input shape: the last 8 bytes (when present) are a little-endian
// purported file size — the validator cross-checks the header's promised
// data region against it — and everything before them is the header
// candidate. Shorter inputs are fed whole with file_size = input size,
// which exercises the truncated-header path.
//
// Invariants on accept: every field restriction the format documents must
// actually hold, and validation must be deterministic (same bytes -> same
// header). Every reject must be a typed SnapshotError, never UB — the
// corruption-matrix tests assert exact codes on curated samples; the
// fuzzer asserts "typed throw or valid header" on arbitrary ones.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "v2v/store/format.hpp"

#define FUZZ_CHECK(cond) \
  do {                   \
    if (!(cond)) __builtin_trap(); \
  } while (0)

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::span<const std::uint8_t> header(data, size);
  std::uint64_t file_size = size;
  if (size >= 8) {
    header = header.first(size - 8);
    std::uint64_t raw = 0;
    std::memcpy(&raw, data + size - 8, sizeof raw);
    file_size = raw;
  }

  try {
    const v2v::store::SnapshotHeader h =
        v2v::store::decode_snapshot_header(header, file_size);
    FUZZ_CHECK(h.version >= v2v::store::kSnapshotVersion &&
               h.version <= v2v::store::kSnapshotVersionTrainerState);
    // A dtype-less header (quantized payloads only) is legal from the
    // section-table version on and must carry an empty float region.
    const bool dtype_none =
        h.dtype == v2v::store::kDtypeNone &&
        h.version >= v2v::store::kSnapshotVersionSections;
    FUZZ_CHECK(h.dtype == v2v::store::kDtypeFloat32 || dtype_none);
    if (dtype_none) {
      FUZZ_CHECK(h.row_stride == 0 && h.data_bytes == 0);
    } else {
      FUZZ_CHECK(h.row_stride >= h.dims);
      FUZZ_CHECK(h.data_bytes == h.rows * h.row_stride * sizeof(float));
    }
    FUZZ_CHECK(h.data_offset >= v2v::store::kSnapshotHeaderBytes);
    FUZZ_CHECK(h.data_offset + h.data_bytes >= h.data_offset);  // no wrap
    FUZZ_CHECK(h.data_offset + h.data_bytes <= file_size);

    // Determinism: a second decode of the same bytes agrees exactly.
    const v2v::store::SnapshotHeader again =
        v2v::store::decode_snapshot_header(header, file_size);
    FUZZ_CHECK(again.rows == h.rows && again.dims == h.dims &&
               again.row_stride == h.row_stride &&
               again.data_offset == h.data_offset &&
               again.data_bytes == h.data_bytes &&
               again.data_checksum == h.data_checksum);
  } catch (const v2v::store::SnapshotError& e) {
    // Typed rejection is the contract; the code must stringify.
    FUZZ_CHECK(v2v::store::snapshot_error_name(e.code()) != nullptr);
  }
  return 0;
}
