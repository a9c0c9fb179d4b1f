// Physical-address decoding into (channel, rank, bank, row, column) — the
// RAS/CAS decomposition of paper §2.1 — plus the DIMM-interleaving layouts of
// §2.2 ("Handling Data Interleaving").
#pragma once

#include <cstdint>
#include <string>

#include "dram/timing.h"
#include "util/status.h"

namespace ndp::dram {

/// Decoded DRAM coordinates of a physical address.
struct DramLocation {
  uint32_t channel = 0;
  uint32_t rank = 0;
  uint32_t bank = 0;
  uint32_t row = 0;
  uint32_t burst_col = 0;  ///< column position in burst (64 B) units
  uint32_t offset = 0;     ///< byte offset within the burst

  // ndp-lint: test-only-ok address-mapping tests compare row buffers
  bool SameRowBuffer(const DramLocation& o) const {
    return channel == o.channel && rank == o.rank && bank == o.bank && row == o.row;
  }
};

/// How the physical address space is spread across channels/DIMMs (§2.2).
enum class InterleaveScheme {
  /// Fill one channel (DIMM) completely before the next: pages contiguous on a
  /// single DIMM; the straightforward case for JAFAR.
  kContiguous,
  /// Interleave across channels at cache-line (one burst, 64 B) granularity.
  kChannelBurst,
  /// Interleave across channels at 64-bit word granularity — the hard case in
  /// §2.2, requiring masked bitmap write-back from JAFAR.
  kChannelWord,
};

const char* InterleaveSchemeToString(InterleaveScheme scheme);

/// \brief Maps physical addresses to DRAM coordinates and back.
///
/// Within one channel the layout is row : rank : bank : column : offset (low
/// bits = column), so a sequential stream walks an entire 8 KB row before
/// switching banks — the open-page-friendly layout column scans rely on.
class AddressMapper {
 public:
  AddressMapper(const DramOrganization& org, InterleaveScheme scheme);

  /// Decodes `addr`; fails if addr is beyond the installed capacity.
  Result<DramLocation> Decode(uint64_t addr) const;

  /// Inverse of Decode. Exact round-trip for valid locations.
  uint64_t Encode(const DramLocation& loc) const;

  InterleaveScheme scheme() const { return scheme_; }
  const DramOrganization& organization() const { return org_; }

  /// Size of the contiguous span mapped to one channel before the mapping
  /// moves to the next channel (whole channel, 64 B, or 8 B).
  uint64_t ChannelStrideBytes() const;

 private:
  DramOrganization org_;
  InterleaveScheme scheme_;
  uint64_t bytes_per_channel_;
};

}  // namespace ndp::dram
