// AVX-512F dispatch tier. This translation unit alone is compiled with
// -mavx512f (which pulls in AVX2/FMA as prerequisites) plus
// -ffp-contract=off; when the compiler also accepts -mavx512bw
// -mavx512vnni the int8 quant_dot kernel uses the real vpdpbusd and the
// table is flagged needs_avx512_vnni so the dispatcher gates the tier on
// those CPUID bits. Everything vector goes through the Avx512Ops policy.
// Without the flags (non-x86 host) the getter returns nullptr and the
// dispatcher skips the tier.

// GCC 12 raises -Wmaybe-uninitialized false positives on `__Y` inside
// avx512fintrin.h: the _mm512_undefined_* helpers self-initialise `__Y` on
// purpose as the "don't care" pass-through operand of unmasked intrinsics.
// The warning is attributed to the header's lines, so ignoring it across
// the include that first pulls the header into this translation unit covers
// every inlined use (dot8_avx512 and the Avx512Ops kernels). The region also
// spans the shared kernel bodies included with it; the scalar and AVX2
// builds of those bodies still compile with the warning on.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include "la/simd/kernels_body.inl"
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace deepphi::la::simd {

#if defined(__AVX512F__)

namespace {

// dot8 with the 8 double lanes in a single 512-bit accumulator. Exact
// products make the fma bit-identical to dot8_ref's mul+add; the masked
// tail adds +0.0, a no-op (see dot8_ref).
double dot8_avx512(const float* x, const float* y, std::int64_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(x + i)),
                          _mm512_cvtps_pd(_mm256_loadu_ps(y + i)), acc);
  }
  if (i < n) {
    // Tail via a 512-bit masked load (only F-level masking exists in this
    // TU); the low 8 floats carry the <=7 live lanes plus zeros.
    const __mmask16 m = Avx512Ops::tail_mask(static_cast<int>(n - i));
    const __m256 xv =
        _mm512_castps512_ps256(_mm512_maskz_loadu_ps(m, x + i));
    const __m256 yv =
        _mm512_castps512_ps256(_mm512_maskz_loadu_ps(m, y + i));
    acc = _mm512_fmadd_pd(_mm512_cvtps_pd(xv), _mm512_cvtps_pd(yv), acc);
  }
  double lanes8[8];
  _mm512_storeu_pd(lanes8, acc);
  return combine8(lanes8);
}

}  // namespace

const KernelTable* avx512_table() {
  static const KernelTable table = [] {
    KernelTable t = make_table<Avx512Ops, 8, 32>(Tier::kAvx512, &dot8_avx512);
#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
    // quant_dot uses the real vpdpbusd; the dispatcher must gate this tier
    // on the BW+VNNI CPUID bits, not just AVX-512F.
    t.needs_avx512_vnni = true;
#endif
    return t;
  }();
  return &table;
}

#else  // compiler has no AVX-512F for this TU

const KernelTable* avx512_table() { return nullptr; }

#endif

}  // namespace deepphi::la::simd
