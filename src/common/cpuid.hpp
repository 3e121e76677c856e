// CPU feature detection for the runtime kernel dispatch (DESIGN.md §16).
//
// The SIMD microkernels in src/nn/kernels/ and the CRC-32 folding kernel in
// src/common/crc32_clmul.cpp are compiled unconditionally on x86-64 (each
// kernel translation unit carries its own -m flags) and selected at runtime
// by querying CPUID, so one binary runs correctly on any host: a machine
// without AVX2 simply never calls into the AVX2 backend.
#pragma once

#include <string>

namespace wifisense::common {

/// Instruction-set extensions relevant to the kernel backends. All fields
/// are false on non-x86 builds (the query compiles to a constant).
struct CpuFeatures {
    bool sse42 = false;
    bool pclmul = false;  // carry-less multiply: the CRC-32 folding kernel
    bool avx = false;
    bool avx2 = false;
    bool fma = false;
};

/// Query the hardware once; subsequent calls return the cached result.
const CpuFeatures& cpu_features();

/// Space-separated list of the detected features ("sse4.2 pclmul avx avx2
/// fma"), or "baseline" when none apply — recorded in bench JSON so perf
/// trends are attributable to the host that produced them.
std::string cpu_feature_string();

}  // namespace wifisense::common
