/**
 * @file
 * Fuzz harness for the untrusted-bytes decoders:
 *
 *   leg 0: artifact::ArtifactReader — the open path.  The contract
 *          under test is reader.h's eager validation: ANY byte string
 *          either opens fully validated or throws the format.h error
 *          taxonomy (ArtifactError).  Crashes, sanitizer reports, and
 *          non-taxonomy exceptions are findings.
 *   leg 1: core::BitReader — LSB-first field extraction.  Contract:
 *          any read schedule either yields values or throws
 *          ArgumentError ("out of data"/"bad field width"); no OOB.
 *   leg 2: gemm::PackedOperand::decode / decode_rows — the windowed
 *          stream decoder.  Five selector bytes pick a pow2 format, a
 *          shape and the row layout; the rest is the stream, copied
 *          into an exactly sized buffer.  Contract: each call equals
 *          the field-by-field oracle (tests/codec_oracle.h) or throws
 *          ArgumentError exactly when the oracle runs out of data; no
 *          OOB.  A mismatch aborts.
 *
 * The first input byte selects the leg (mod 3); the rest is the
 * payload, so one corpus (seeded from tests/data/) drives every leg.
 *
 * Built two ways by tests/fuzz/CMakeLists.txt:
 *   * Clang: -fsanitize=fuzzer, libFuzzer provides main() — the real
 *     coverage-guided run (CI: 60s smoke in the sanitize job).
 *   * otherwise: a standalone main() below replays files/dirs passed
 *     as arguments, so the harness itself stays buildable and the
 *     corpus replayable under GCC ASan locally.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "artifact/reader.h"
#include "core/bdr_format.h"
#include "core/bitstream.h"
#include "core/check.h"
#include "gemm/packed_operand.h"

#include "../codec_oracle.h"

namespace {

/** Temp file holding the fuzz payload (the reader API is path-based). */
std::string
spill(const std::uint8_t* data, std::size_t size)
{
    static const std::string path = [] {
        const char* tmp = std::getenv("TMPDIR"); // NOLINT: harness tier
        std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
        return dir + "/mx_fuzz_artifact.bin";
    }();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return {};
    if (size != 0)
        std::fwrite(data, 1, size, f);
    std::fclose(f);
    return path;
}

void
fuzz_artifact_open(const std::uint8_t* data, std::size_t size)
{
    const std::string path = spill(data, size);
    if (path.empty())
        return;
    try {
        mx::artifact::ArtifactReader reader(path);
        // Well-formed input (e.g. the golden seed): walk the frozen
        // handles so the zero-copy path executes under the sanitizer.
        for (std::size_t i = 0; i < reader.entry_count(); ++i)
            (void)reader.frozen(i);
    } catch (const mx::artifact::ArtifactError&) {
        // The documented rejection taxonomy: expected.
    } catch (const mx::ArgumentError&) {
        // Validator-level MX_CHECK_ARG rejections: expected.
    }
}

void
fuzz_bit_reader(const std::uint8_t* data, std::size_t size)
{
    if (size == 0)
        return;
    // First half schedules the reads, second half is the bitstream, so
    // the fuzzer can mutate widths and payload independently.
    const std::size_t split = size / 2;
    std::vector<std::uint8_t> stream(data + split, data + size);
    mx::core::BitReader reader(stream);
    std::uint64_t sink = 0;
    try {
        for (std::size_t i = 0; i < split; ++i) {
            // 0..66: out-of-range widths must throw, not misread.
            sink ^= reader.read(static_cast<int>(data[i] % 67));
        }
    } catch (const mx::ArgumentError&) {
        // "bad field width" / "out of data": the documented contract.
    }
    (void)sink;
}

/** The formats leg 2 draws from: the MX family, plain BFP, and custom
 *  shapes covering every k2 and d2 width, odd mantissa widths (fields
 *  that straddle bytes) and the d1 extremes. */
const std::vector<mx::core::kernels::QuantPlan>&
decode_plans()
{
    static const std::vector<mx::core::kernels::QuantPlan> plans = [] {
        using namespace mx::core;
        std::vector<kernels::QuantPlan> p;
        for (const BdrFormat& f :
             {mx9(), mx6(), mx4(), msfp16(), msfp12(),
              mx_custom(3, 8, 32, 2, 4), mx_custom(10, 8, 128, 3, 8),
              mx_custom(5, 11, 16, 4, 16), mx_custom(1, 1, 8, 1, 1),
              mx_custom(15, 8, 64, 2, 2), bfp_custom(6, 5, 24)})
            p.push_back(kernels::make_quant_plan(f));
        return p;
    }();
    return plans;
}

void
fuzz_operand_decode(const std::uint8_t* data, std::size_t size)
{
    if (size < 5)
        return;
    const auto& plans = decode_plans();
    const mx::core::kernels::QuantPlan& plan = plans[data[0] % plans.size()];
    const std::size_t rows = 1 + data[1] % 8;
    const std::size_t cols =
        1 + (static_cast<std::size_t>(data[2]) |
             static_cast<std::size_t>(data[3] & 1) << 8);
    const bool aligned_rows = (data[4] & 1) != 0;
    // Exactly sized: a read one byte past the stream is an OOB access.
    const std::vector<std::uint8_t> stream(data + 5, data + size);

    mx::test::OracleView ref;
    const bool oracle_ok = mx::test::oracle_decode(plan, stream, rows, cols,
                                                   aligned_rows, ref);
    try {
        const mx::gemm::PackedOperand op =
            aligned_rows
                ? mx::gemm::PackedOperand::decode_rows(plan, stream, rows,
                                                       cols)
                : mx::gemm::PackedOperand::decode(plan, stream, rows, cols);
        const std::string diff = mx::test::first_mismatch(op, ref);
        if (!oracle_ok || !diff.empty()) {
            std::fprintf(stderr, "fuzz_mx: decode disagrees with the "
                                 "oracle: %s\n",
                         oracle_ok ? diff.c_str() : "oracle ran out");
            std::abort();
        }
    } catch (const mx::ArgumentError&) {
        if (oracle_ok) {
            std::fprintf(stderr, "fuzz_mx: decode threw on a stream the "
                                 "oracle reads\n");
            std::abort();
        }
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    if (size == 0)
        return 0;
    switch (data[0] % 3) {
      case 0:
        fuzz_artifact_open(data + 1, size - 1);
        break;
      case 1:
        fuzz_bit_reader(data + 1, size - 1);
        break;
      default:
        fuzz_operand_decode(data + 1, size - 1);
        break;
    }
    return 0;
}

#ifndef MX_FUZZ_LIBFUZZER
// Standalone replay driver (non-Clang builds): run every file named on
// the command line through the fuzz entry point once.
#include <filesystem>
#include <fstream>

namespace {

int
replay_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "fuzz_mx: cannot read %s\n", path.c_str());
        return 1;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    // Replay under every leg regardless of the selector byte so a
    // seed corpus of real artifacts exercises the decoders too.
    for (std::uint8_t selector :
         {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}}) {
        std::vector<std::uint8_t> input;
        input.reserve(bytes.size() + 1);
        input.push_back(selector);
        input.insert(input.end(), bytes.begin(), bytes.end());
        LLVMFuzzerTestOneInput(input.data(), input.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    int failures = 0;
    int replayed = 0;
    for (int i = 1; i < argc; ++i) {
        const std::filesystem::path arg(argv[i]);
        if (std::filesystem::is_directory(arg)) {
            for (const auto& entry :
                 std::filesystem::recursive_directory_iterator(arg)) {
                if (!entry.is_regular_file())
                    continue;
                failures += replay_file(entry.path().string());
                ++replayed;
            }
        } else {
            failures += replay_file(arg.string());
            ++replayed;
        }
    }
    std::printf("fuzz_mx: replayed %d input(s), %d failure(s)\n",
                replayed, failures);
    return failures == 0 ? 0 : 1;
}
#endif // !MX_FUZZ_LIBFUZZER
