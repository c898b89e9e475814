#pragma once

/**
 * @file
 * ArtifactReader: validate an MXFROZEN file, map it read-only, and
 * materialize zero-copy FrozenTensor handles (format.h documents the
 * layout and integrity model).
 *
 * Validation is EAGER: the constructor checks magic, version, header
 * CRC, section ranges, section CRCs, the manifest schema, and every
 * entry's payload range, CRC, size consistency, and rounding plan
 * before returning — a constructed reader is a proof the file is
 * well-formed, and no partially-validated FrozenTensor ever escapes.
 *
 * Zero-copy contract: PackedPow2 payloads are NOT copied out of the
 * mapping.  frozen(i) builds a FrozenTensor whose payload views the
 * mapped bytes and pins the mapping alive (nn::FrozenTensor::
 * from_packed), and the handle is cached — so every model loaded from
 * one reader shares the SAME payload (shares_payload_with() holds
 * across models), and N serve replicas share the single mapping.
 *
 * Rounding invariant (the load half — the freeze half lives in
 * nn::FrozenTensor::build): entry validation rejects any stochastic
 * rounding plan with UnsupportedPlanError, so a hand-crafted file
 * cannot smuggle an unreproducible plan past the freeze-time check.
 */

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "nn/frozen.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace mx {
namespace artifact {

/** Read-only view of one artifact; see the file header for contracts. */
class ArtifactReader
{
  public:
    /** Open, map, and fully validate @p path (throws the format.h
     *  error taxonomy). */
    explicit ArtifactReader(const std::string& path);

    ModelFamily family() const { return header_.family; }
    std::uint32_t version() const { return header_.version; }
    std::size_t entry_count() const { return entries_.size(); }
    const std::vector<Entry>& entries() const { return entries_; }

    /** The config blob (points into the mapping; valid while the
     *  reader or any loaded handle lives). */
    std::span<const std::uint8_t> config_blob() const;

    /** A ByteReader positioned at the config blob's start. */
    ByteReader config() const;

    /** Entry @p i's payload bytes inside the mapping. */
    std::span<const std::uint8_t> payload(std::size_t i) const;

    /**
     * Entry @p i's FrozenTensor handle (packed kinds only).  Built on
     * first use and cached: repeated calls — and therefore every model
     * loaded from this reader — share one payload viewing the mapping.
     * The first request decides the FP32 grid: load_into builds a
     * Linear slot's handle with a grid only when it cannot pair with
     * its activation format (FrozenTensor::pairs_with), while a
     * handle first built here keeps its grid (any layer can read it).
     */
    const nn::FrozenTensor& frozen(std::size_t i) const;

    /** Entry @p i's FP32 tensor (RawF32 kinds only; copies out of the
     *  mapping — parameters stay mutable after load). */
    tensor::Tensor raw_tensor(std::size_t i) const;

    /**
     * Restore a model's state: @p refs must be the model's
     * collect_state slots in save order (count and shapes are
     * checked).  Spec slots are restored first, so a packed_matmul
     * slot's grid is decided under the spec it will serve with.
     * FrozenTensor slots get the shared zero-copy handles; parameter
     * values mirror the grid, or are zeroed for a packed entry without
     * one (loaded models are serve-only); storage-format and
     * freeze-flag slots are restored.
     */
    void load_into(const std::vector<nn::FrozenStateRef>& refs) const;

    /** Mapped file size in bytes (the memory N replicas share). */
    std::size_t file_size() const;

    /** True when the file is served by mmap (false on the non-POSIX
     *  read-into-memory fallback). */
    bool mmapped() const;

  private:
    /** The mapped (or fallback-loaded) file; FrozenTensor payloads pin
     *  it via shared_ptr. */
    struct Mapping;

    std::span<const std::uint8_t> file() const;
    void validate_entry(std::size_t i) const;
    /** frozen(i), building a missing handle for a layer whose matmul
     *  quantizes its activations under @p act
     *  (FrozenTensor::from_packed). */
    const nn::FrozenTensor&
    handle(std::size_t i, const std::optional<core::BdrFormat>& act) const;

    std::string path_;
    std::shared_ptr<Mapping> map_;
    Header header_;
    std::vector<Entry> entries_;
    /** Lazily built, cached zero-copy handles (invalid = not built). */
    mutable std::vector<nn::FrozenTensor> handles_;
};

} // namespace artifact
} // namespace mx
