#pragma once

/**
 * @file
 * The MXFROZEN on-disk format: serialized frozen-model artifacts.
 *
 * The paper's deployment story quantizes weights ONCE and serves the
 * resulting bit streams; an artifact is that split made durable.  A
 * frozen model (nn/frozen.h) is written to disk as its packed MX/BFP
 * streams plus the manifest needed to rebuild every FrozenTensor
 * handle, and a serving process mmaps the file read-only and
 * materializes handles whose payloads point straight into the mapping
 * — N loaded models share the one mapping, and cold start
 * skips quantize+pack entirely.
 *
 * ## Layout (version 1, all integers little-endian)
 *
 *   [ header  | 80 bytes, fixed ]
 *   [ config  | model-family-specific blob           ]
 *   [ manifest| entry_count records                  ]
 *   [ payloads| 8-byte-aligned packed streams / FP32 ]
 *
 * Header (offsets in bytes):
 *    0  magic            "MXFROZEN" (8 bytes)
 *    8  version          u32 (this writer emits 1)
 *   12  header_size      u32 (80)
 *   16  model_family     u32 (ModelFamily)
 *   20  entry_count      u32
 *   24  config_offset    u64     40 manifest_offset  u64
 *   32  config_size      u64     48 manifest_size    u64
 *   56  file_size        u64 (must equal the on-disk size)
 *   64  config_crc       u32     68 manifest_crc     u32
 *   72  header_crc       u32 (CRC32 of the 80 header bytes with this
 *                             field zeroed)
 *   76  reserved         u32 (0)
 *
 * Manifest record, per entry (Layer::collect_state order — load is
 * positional; names are for diagnostics):
 *   str name | u8 kind | u8 frozen | u8 has_spec | u8 rounding |
 *   u32 ndim + ndim x u64 dims | opt<BdrFormat> | [QuantSpec] |
 *   u64 payload_offset | u64 payload_size | u64 payload_bits |
 *   u32 payload_crc
 *
 * ## Integrity model
 * Three CRC32 checksums (poly 0xEDB88320) cover header, config, and
 * manifest; each payload carries its own.  The reader validates
 * eagerly at open — magic, version, header CRC, section ranges,
 * section CRCs, manifest schema, per-entry payload ranges and CRCs —
 * so no FrozenTensor handle ever escapes a corrupt file, and every
 * failure is a distinct typed error (below).
 *
 * ## Versioning rules
 * `version` is the format generation: any change to the byte layout of
 * header, manifest, config, or payloads bumps it, and a reader opens
 * only versions it knows (no silent forward-compat).  The golden
 * artifact under tests/data/ pins version 1's exact bytes.
 *
 * ## Rounding invariant
 * Stochastic rounding can never reproduce a frozen snapshot, so it is
 * rejected in BOTH places it could enter: at freeze time
 * (nn::FrozenTensor::build) and at load time (ArtifactReader's entry
 * validation throws UnsupportedPlanError) — a file hand-crafted to
 * claim a stochastic plan is rejected even though no writer emits one.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bdr_format.h"
#include "core/check.h"
#include "core/rounding.h"
#include "nn/quant.h"

namespace mx {
namespace artifact {

/** Format magic ("MXFROZEN") and the generation this code speaks. */
inline constexpr char kMagic[8] = {'M', 'X', 'F', 'R', 'O', 'Z', 'E', 'N'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::uint32_t kHeaderSize = 80;

/** Which model family's config blob the artifact carries. */
enum class ModelFamily : std::uint32_t
{
    Mlp = 1,
    ResNet = 2,
    Bert = 3,
    Gpt = 4,
    Seq2Seq = 5,
    Dlrm = 6,
};

/** How one entry's payload is encoded. */
enum class EntryKind : std::uint8_t
{
    RawF32 = 0,     ///< FP32 tensor bytes (biases, norms, raw tables).
    PackedPow2 = 1, ///< Row-aware pow2 block stream (MX/BFP) — loads
                    ///< zero-copy into the mapping.
    PackedFlat = 2, ///< Software-scaled flat stream (scaled INT, VSQ).
};

/** The entry's freeze state at save time. */
enum class FrozenState : std::uint8_t
{
    None = 0,     ///< Plain parameter, no snapshot.
    Snapshot = 1, ///< A FrozenTensor snapshot existed (quantized or
                  ///< FP32-passthrough) and is rebuilt at load.
    FlagOnly = 2, ///< frozen() was a bare flag with no snapshot
                  ///< (LayerNorm, format-less Embedding).
};

/** @name Typed failure modes
 * Every way an artifact can be unusable gets its own type, so callers
 * (and the corruption-matrix test) can tell them apart.  All derive
 * from ArtifactError -> mx::Error.
 * @{
 */
class ArtifactError : public Error
{
  public:
    explicit ArtifactError(const std::string& what) : Error(what) {}
};

/** open/read/write/mmap syscall failure. */
class ArtifactIoError : public ArtifactError
{
  public:
    explicit ArtifactIoError(const std::string& what) : ArtifactError(what)
    {
    }
};

/** The first 8 bytes are not "MXFROZEN" — not an artifact at all. */
class BadMagicError : public ArtifactError
{
  public:
    explicit BadMagicError(const std::string& what) : ArtifactError(what) {}
};

/** A format generation this reader does not speak. */
class UnsupportedVersionError : public ArtifactError
{
  public:
    explicit UnsupportedVersionError(const std::string& what)
        : ArtifactError(what)
    {
    }
};

/** The file ends before the bytes its header declares. */
class TruncatedError : public ArtifactError
{
  public:
    explicit TruncatedError(const std::string& what) : ArtifactError(what)
    {
    }
};

/** A CRC32 mismatch; the message names the failing section. */
class ChecksumError : public ArtifactError
{
  public:
    explicit ChecksumError(const std::string& what) : ArtifactError(what) {}
};

/** A section or payload offset/size reaches outside the file. */
class RangeError : public ArtifactError
{
  public:
    explicit RangeError(const std::string& what) : ArtifactError(what) {}
};

/** Checksums pass but the decoded contents are malformed (bad enum
 *  code, inconsistent sizes, config/model mismatch). */
class SchemaError : public ArtifactError
{
  public:
    explicit SchemaError(const std::string& what) : ArtifactError(what) {}
};

/** The file declares a quantization plan this build refuses to serve —
 *  today, stochastic rounding (see the file-header invariant). */
class UnsupportedPlanError : public ArtifactError
{
  public:
    explicit UnsupportedPlanError(const std::string& what)
        : ArtifactError(what)
    {
    }
};
/** @} */

/** CRC32 (IEEE 802.3, poly 0xEDB88320, init/final xor 0xFFFFFFFF) of
 *  @p n bytes; chain sections by passing the previous result as
 *  @p seed. */
std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0);

/** Little-endian field serializer for config blobs and the manifest. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void raw(const void* data, std::size_t n);
    /** u32 length + bytes. */
    void str(const std::string& s);
    /** All BdrFormat fields (the catalog name is stored but the
     *  numeric fields are authoritative at load). */
    void format(const core::BdrFormat& f);
    /** u8 present + format. */
    void opt_format(const std::optional<core::BdrFormat>& f);
    /** forward / weight_forward / backward / rounding. */
    void spec(const nn::QuantSpec& s);

    const std::vector<std::uint8_t>& data() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian field reader over a byte span (e.g. a
 *  slice of the mapping).  Overruns and bad enum codes throw
 *  SchemaError naming @p section — by the time parsing runs, the
 *  section's CRC has already passed, so a malformed field is a schema
 *  problem, not corruption. */
class ByteReader
{
  public:
    ByteReader(std::span<const std::uint8_t> bytes, std::string section)
        : bytes_(bytes), section_(std::move(section))
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    void raw(void* out, std::size_t n);
    std::string str();
    core::BdrFormat format();
    std::optional<core::BdrFormat> opt_format();
    nn::QuantSpec spec();
    /** Rounding code -> enum; rejects unknown codes (SchemaError). */
    core::RoundingMode rounding();

    std::size_t position() const { return pos_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool exhausted() const { return pos_ == bytes_.size(); }

    /** The section name (for error messages raised by callers). */
    const std::string& section() const { return section_; }

  private:
    void need(std::size_t n) const;

    std::span<const std::uint8_t> bytes_;
    std::string section_;
    std::size_t pos_ = 0;
};

/** One manifest record (metadata only; payload bytes stay in the
 *  file/mapping). */
struct Entry
{
    std::string name;                       ///< Diagnostic state name.
    EntryKind kind = EntryKind::RawF32;
    FrozenState frozen = FrozenState::None;
    std::vector<std::int64_t> dims;
    /** Packed kinds: the stream's format.  RawF32: an Embedding's
     *  storage format slot (normally nullopt). */
    std::optional<core::BdrFormat> format;
    /** Rounding the stream was packed under (deterministic only). */
    core::RoundingMode rounding = core::RoundingMode::NearestEven;
    /** The owning layer's QuantSpec, when the layer has one. */
    std::optional<nn::QuantSpec> spec;

    std::uint64_t payload_offset = 0; ///< Absolute file offset (8-aligned).
    std::uint64_t payload_size = 0;   ///< Payload bytes.
    std::uint64_t payload_bits = 0;   ///< Exact stream bits (RawF32: size*8).
    std::uint32_t payload_crc = 0;

    std::int64_t numel() const;
};

/** Serialize one manifest record. */
void write_entry(ByteWriter& w, const Entry& e);
/** Parse one manifest record (SchemaError on malformed fields). */
Entry read_entry(ByteReader& r);

/** The fixed header, parsed.  serialize() computes header_crc. */
struct Header
{
    std::uint32_t version = kVersion;
    ModelFamily family = ModelFamily::Mlp;
    std::uint32_t entry_count = 0;
    std::uint64_t config_offset = 0, config_size = 0;
    std::uint64_t manifest_offset = 0, manifest_size = 0;
    std::uint64_t file_size = 0;
    std::uint32_t config_crc = 0, manifest_crc = 0;

    /** The 80 header bytes with header_crc filled in. */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Parse and validate @p file's first bytes in the documented order:
     * size >= 80 (TruncatedError) -> magic (BadMagicError) -> version
     * (UnsupportedVersionError) -> header CRC (ChecksumError) ->
     * declared vs actual size (TruncatedError / SchemaError) ->
     * section ranges (RangeError).
     */
    static Header parse(std::span<const std::uint8_t> file);
};

} // namespace artifact
} // namespace mx
