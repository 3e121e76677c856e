#include "common/cpuid.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define WIFISENSE_CPUID_X86 1
#include <cpuid.h>
#else
#define WIFISENSE_CPUID_X86 0
#endif

namespace wifisense::common {

namespace {

CpuFeatures detect() {
    CpuFeatures f;
#if WIFISENSE_CPUID_X86
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
        f.sse42 = (ecx & bit_SSE4_2) != 0;
        f.pclmul = (ecx & bit_PCLMUL) != 0;
        f.avx = (ecx & bit_AVX) != 0;
        f.fma = (ecx & bit_FMA) != 0;
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        f.avx2 = (ebx & bit_AVX2) != 0;
#endif
    return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
    static const CpuFeatures f = detect();
    return f;
}

std::string cpu_feature_string() {
    const CpuFeatures& f = cpu_features();
    std::string s;
    const auto append = [&s](const char* name) {
        if (!s.empty()) s += ' ';
        s += name;
    };
    if (f.sse42) append("sse4.2");
    if (f.pclmul) append("pclmul");
    if (f.avx) append("avx");
    if (f.avx2) append("avx2");
    if (f.fma) append("fma");
    if (s.empty()) s = "baseline";
    return s;
}

}  // namespace wifisense::common
