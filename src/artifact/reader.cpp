#include "artifact/reader.h"

#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define MX_ARTIFACT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MX_ARTIFACT_HAS_MMAP 0
#endif

#include "core/kernels/quant_kernel.h"
#include "gemm/packed_operand.h"

namespace mx {
namespace artifact {

// -------------------------------------------------------------- mapping

struct ArtifactReader::Mapping
{
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    bool mmapped = false;
    std::vector<std::uint8_t> fallback; ///< Owns bytes when !mmapped.

    explicit Mapping(const std::string& path)
    {
#if MX_ARTIFACT_HAS_MMAP
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw ArtifactIoError("artifact: cannot open \"" + path +
                                  "\" for reading");
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            throw ArtifactIoError("artifact: cannot stat \"" + path +
                                  "\"");
        }
        size = static_cast<std::size_t>(st.st_size);
        if (size > 0) {
            void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
            ::close(fd);
            if (p == MAP_FAILED)
                throw ArtifactIoError("artifact: mmap of \"" + path +
                                      "\" failed");
            data = static_cast<const std::uint8_t*>(p);
            mmapped = true;
        } else {
            ::close(fd);
        }
#else
        std::ifstream in(path, std::ios::binary);
        if (!in)
            throw ArtifactIoError("artifact: cannot open \"" + path +
                                  "\" for reading");
        fallback.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
        data = fallback.data();
        size = fallback.size();
#endif
    }

    ~Mapping()
    {
#if MX_ARTIFACT_HAS_MMAP
        if (mmapped && data != nullptr)
            ::munmap(const_cast<std::uint8_t*>(data), size);
#endif
    }

    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
};

// --------------------------------------------------------------- reader

ArtifactReader::ArtifactReader(const std::string& path)
    : path_(path), map_(std::make_shared<Mapping>(path))
{
    const std::span<const std::uint8_t> bytes = file();
    header_ = Header::parse(bytes);

    // Section CRCs before any parsing of their contents.
    const std::span<const std::uint8_t> config =
        bytes.subspan(header_.config_offset, header_.config_size);
    if (crc32(config.data(), config.size()) != header_.config_crc)
        throw ChecksumError("artifact \"" + path_ +
                            "\": config CRC mismatch");
    const std::span<const std::uint8_t> manifest =
        bytes.subspan(header_.manifest_offset, header_.manifest_size);
    if (crc32(manifest.data(), manifest.size()) != header_.manifest_crc)
        throw ChecksumError("artifact \"" + path_ +
                            "\": manifest CRC mismatch");

    ByteReader r(manifest, "manifest");
    entries_.reserve(header_.entry_count);
    for (std::uint32_t i = 0; i < header_.entry_count; ++i)
        entries_.push_back(read_entry(r));
    if (!r.exhausted())
        throw SchemaError("artifact \"" + path_ + "\": manifest holds " +
                          std::to_string(r.remaining()) +
                          " bytes past the last entry");

    for (std::size_t i = 0; i < entries_.size(); ++i)
        validate_entry(i);
    handles_.resize(entries_.size());
}

std::span<const std::uint8_t>
ArtifactReader::file() const
{
    return {map_->data, map_->size};
}

std::span<const std::uint8_t>
ArtifactReader::config_blob() const
{
    return file().subspan(header_.config_offset, header_.config_size);
}

ByteReader
ArtifactReader::config() const
{
    return ByteReader(config_blob(), "config");
}

std::span<const std::uint8_t>
ArtifactReader::payload(std::size_t i) const
{
    MX_CHECK_ARG(i < entries_.size(),
                 "ArtifactReader: entry index out of range");
    const Entry& e = entries_[i];
    return file().subspan(e.payload_offset, e.payload_size);
}

void
ArtifactReader::validate_entry(std::size_t i) const
{
    const Entry& e = entries_[i];
    const std::string where =
        "artifact \"" + path_ + "\" entry \"" + e.name + "\"";

    // Payload range inside the file, then its CRC.
    if (e.payload_offset < kHeaderSize ||
        e.payload_offset > header_.file_size ||
        e.payload_size > header_.file_size - e.payload_offset)
        throw RangeError(where + ": payload [" +
                         std::to_string(e.payload_offset) + ", +" +
                         std::to_string(e.payload_size) +
                         ") reaches outside the file");
    const std::span<const std::uint8_t> bytes = payload(i);
    if (crc32(bytes.data(), bytes.size()) != e.payload_crc)
        throw ChecksumError(where + ": payload CRC mismatch");

    // The load half of the stochastic-rounding rejection (the freeze
    // half lives in nn::FrozenTensor::build).
    if (e.rounding == core::RoundingMode::Stochastic ||
        (e.spec.has_value() &&
         e.spec->rounding == core::RoundingMode::Stochastic))
        throw UnsupportedPlanError(
            where + ": stochastic rounding plans cannot be served — a "
                    "stochastic snapshot is unreproducible (mirrors the "
                    "freeze-time rejection in nn::FrozenTensor::build)");

    for (std::int64_t d : e.dims)
        if (d <= 0)
            throw SchemaError(where + ": non-positive dimension");

    if (e.payload_bits > e.payload_size * 8)
        throw SchemaError(where + ": declares " +
                          std::to_string(e.payload_bits) +
                          " payload bits in " +
                          std::to_string(e.payload_size) + " bytes");

    switch (e.kind) {
    case EntryKind::RawF32:
        if (e.payload_size !=
            static_cast<std::uint64_t>(e.numel()) * sizeof(float))
            throw SchemaError(
                where + ": FP32 payload of " +
                std::to_string(e.payload_size) + " bytes for " +
                std::to_string(e.numel()) + " elements");
        break;
    case EntryKind::PackedPow2: {
        if (!e.format.has_value())
            throw SchemaError(where + ": packed entry with no format");
        if (e.dims.size() != 2)
            throw SchemaError(where + ": packed entries are 2-d");
        core::kernels::QuantPlan plan;
        try {
            plan = core::kernels::make_quant_plan(*e.format);
        } catch (const Error& err) {
            throw SchemaError(where +
                              ": format is not a pow2 block format — " +
                              err.what());
        }
        const std::uint64_t expect =
            static_cast<std::uint64_t>(e.dims[0]) *
            gemm::row_bits(plan, static_cast<std::size_t>(e.dims[1]));
        if (e.payload_bits != expect)
            throw SchemaError(where + ": stream carries " +
                              std::to_string(e.payload_bits) +
                              " bits, shape needs " +
                              std::to_string(expect));
        if (e.payload_size != (e.payload_bits + 7) / 8)
            throw SchemaError(where + ": payload byte size does not "
                                      "match its bit size");
        break;
    }
    case EntryKind::PackedFlat:
        if (!e.format.has_value())
            throw SchemaError(where + ": packed entry with no format");
        if (e.dims.size() != 2)
            throw SchemaError(where + ": packed entries are 2-d");
        if (e.payload_size != (e.payload_bits + 7) / 8)
            throw SchemaError(where + ": payload byte size does not "
                                      "match its bit size");
        break;
    }
}

const nn::FrozenTensor&
ArtifactReader::frozen(std::size_t i) const
{
    return handle(i, std::nullopt);
}

const nn::FrozenTensor&
ArtifactReader::handle(std::size_t i,
                       const std::optional<core::BdrFormat>& act) const
{
    MX_CHECK_ARG(i < entries_.size(),
                 "ArtifactReader: entry index out of range");
    const Entry& e = entries_[i];
    MX_CHECK_ARG(e.kind != EntryKind::RawF32,
                 "ArtifactReader: entry \""
                     << e.name
                     << "\" is a raw tensor, not a packed snapshot");
    if (!handles_[i].valid()) {
        // Pin the mapping through the payload: the handle (and every
        // copy of it) keeps the file mapped.
        handles_[i] = nn::FrozenTensor::from_packed(
            *e.format, payload(i), e.payload_bits, e.dims[0], e.dims[1],
            std::shared_ptr<const void>(map_, map_->data), act);
    }
    return handles_[i];
}

tensor::Tensor
ArtifactReader::raw_tensor(std::size_t i) const
{
    MX_CHECK_ARG(i < entries_.size(),
                 "ArtifactReader: entry index out of range");
    const Entry& e = entries_[i];
    MX_CHECK_ARG(e.kind == EntryKind::RawF32,
                 "ArtifactReader: entry \""
                     << e.name << "\" is packed, not a raw tensor");
    tensor::Tensor t(e.dims);
    std::memcpy(t.data(), payload(i).data(),
                static_cast<std::size_t>(t.numel()) * sizeof(float));
    return t;
}

void
ArtifactReader::load_into(
    const std::vector<nn::FrozenStateRef>& refs) const
{
    if (refs.size() != entries_.size())
        throw SchemaError(
            "artifact \"" + path_ + "\": model collects " +
            std::to_string(refs.size()) + " state slots but the file "
            "holds " + std::to_string(entries_.size()) +
            " entries — wrong architecture for this artifact");
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const Entry& e = entries_[i];
        const nn::FrozenStateRef& ref = refs[i];
        const std::string where =
            "artifact \"" + path_ + "\" entry \"" + e.name + "\"";

        if (ref.spec != nullptr && e.spec.has_value())
            *ref.spec = *e.spec;
        if (e.kind == EntryKind::RawF32) {
            if (ref.param->value.shape() != e.dims)
                throw SchemaError(where + ": shape mismatch against "
                                          "slot \"" + ref.name + "\"");
            ref.param->value = raw_tensor(i);
            if (e.frozen == FrozenState::Snapshot && ref.frozen != nullptr)
                *ref.frozen = nn::FrozenTensor::build(ref.param->value,
                                                      std::nullopt);
        } else {
            if (ref.frozen == nullptr)
                throw SchemaError(where + ": packed entry but slot \"" +
                                  ref.name + "\" cannot hold a frozen "
                                             "snapshot");
            if (ref.param->value.ndim() != 2 ||
                ref.param->value.dim(0) != e.dims[0] ||
                ref.param->value.dim(1) != e.dims[1])
                throw SchemaError(where + ": shape mismatch against "
                                          "slot \"" + ref.name + "\"");
            const nn::FrozenTensor& fz = handle(
                i, ref.packed_matmul && ref.spec != nullptr
                       ? ref.spec->forward
                       : std::nullopt);
            *ref.frozen = fz; // O(1): shares the cached payload.
            // The FP32 parameter mirrors the grid values when the
            // layer reads them; otherwise it stays zeroed — the
            // loaded model is serve-only either way.
            if (fz.values().numel() > 0)
                ref.param->value = fz.values();
            else
                ref.param->value.fill(0.0f);
        }

        if (ref.storage_format != nullptr)
            *ref.storage_format = e.format;
        if (ref.frozen_flag != nullptr)
            *ref.frozen_flag = e.frozen != FrozenState::None;
    }
}

std::size_t
ArtifactReader::file_size() const
{
    return map_->size;
}

bool
ArtifactReader::mmapped() const
{
    return map_->mmapped;
}

} // namespace artifact
} // namespace mx
