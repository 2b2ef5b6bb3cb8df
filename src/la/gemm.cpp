#include "la/gemm.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/pack_arena.hpp"
#include "la/simd/dispatch.hpp"
#include "la/simd/vec_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {

// The bound tier's register tile and its micro-kernel for one call's
// epilogue, read once per GEMM call from the dispatch table.
struct MicroKernel {
  simd::KernelTable::GemmMicroFn fn;
  Index mr;
  Index nr;
};

// Packs `lanes` lanes × kc k-steps of `s` into w-lane panels stored k-major
// and zero-padded past `lanes`: panel p holds lanes [p·w, p·w+w), element
// (kk, l) at kk·w + l. A lane is a row of `s` (lanes_are_rows) or a column,
// starting at lane0; k-steps start at k0. The loop order follows the storage,
// so reads are contiguous either way: column lanes copy w adjacent floats of
// row k0+kk per step; row lanes read four rows front to back together and
// write four adjacent floats per step.
void pack_panels(const Matrix& s, bool lanes_are_rows, Index lane0, Index k0,
                 Index lanes, Index kc, Index w, float* buf) {
  for (Index p0 = 0; p0 < lanes; p0 += w) {
    const Index live = std::min(w, lanes - p0);
    float* dst = buf + p0 * kc;  // panel p0 / w starts at (p0 / w)·kc·w
    if (!lanes_are_rows) {
      for (Index kk = 0; kk < kc; ++kk) {
        const float* src = s.row(k0 + kk) + lane0 + p0;
        float* d = dst + kk * w;
        std::copy(src, src + live, d);
        std::fill(d + live, d + w, 0.0f);
      }
      continue;
    }
    Index l = 0;
    for (; l + 4 <= live; l += 4) {
      const float* s0 = s.row(lane0 + p0 + l) + k0;
      const float* s1 = s.row(lane0 + p0 + l + 1) + k0;
      const float* s2 = s.row(lane0 + p0 + l + 2) + k0;
      const float* s3 = s.row(lane0 + p0 + l + 3) + k0;
      for (Index kk = 0; kk < kc; ++kk) {
        float* d = dst + kk * w + l;
        d[0] = s0[kk];
        d[1] = s1[kk];
        d[2] = s2[kk];
        d[3] = s3[kk];
      }
    }
    for (; l < live; ++l) {
      const float* src = s.row(lane0 + p0 + l) + k0;
      for (Index kk = 0; kk < kc; ++kk) dst[kk * w + l] = src[kk];
    }
    for (; l < w; ++l)
      for (Index kk = 0; kk < kc; ++kk) dst[kk * w + l] = 0.0f;
  }
}

// Serial blocked GEMM over the C tile [row_begin, row_end) × [col_begin,
// col_end). `a_buf` and `b_buf` are caller-provided packing buffers sized for
// the blocking and the register tile. Beta is folded into the first k-panel's
// write-back and the epilogue into the last one's, so the tile is touched
// exactly once per k-panel and never in a separate elementwise pass. The
// mr×nr micro-kernel itself lives in the dispatch layer (src/la/simd/), one
// explicit-intrinsics instantiation per ISA tier and EpilogueOp; `uk` is the
// bound one for this call's epilogue.
void gemm_tile(Trans ta, Trans tb, float alpha, float beta, const Matrix& a,
               const Matrix& b, Matrix& c, Index row_begin, Index row_end,
               Index col_begin, Index col_end, Index k, const GemmBlocking& bl,
               float* a_buf, float* b_buf, const GemmEpilogue& ep,
               const MicroKernel& uk) {
  const Index mr = uk.mr;
  const Index nr = uk.nr;
  const float* bias_base = ep.bias != nullptr ? ep.bias->data() : nullptr;
  const Matrix* act = ep.act;
  const Index act_ld = act != nullptr ? act->cols() : 0;
  const Index ldc = c.cols();
  for (Index jc = col_begin; jc < col_end; jc += bl.nc) {
    const Index nc_eff = std::min(bl.nc, col_end - jc);
    for (Index pc = 0; pc < k; pc += bl.kc) {
      const Index kc_eff = std::min(bl.kc, k - pc);
      const bool first_k = pc == 0;
      const bool last_k = pc + kc_eff == k;
      // A lane of op(B) is a column of op(B): a row of B when transposed.
      pack_panels(b, tb == Trans::kYes, jc, pc, nc_eff, kc_eff, nr, b_buf);
      for (Index ic = row_begin; ic < row_end; ic += bl.mc) {
        const Index mc_eff = std::min(bl.mc, row_end - ic);
        // A lane of op(A) is a row of op(A): a row of A unless transposed.
        pack_panels(a, ta == Trans::kNo, ic, pc, mc_eff, kc_eff, mr, a_buf);
        for (Index jr = 0; jr < nc_eff; jr += nr) {
          const float* bp = b_buf + (jr / nr) * kc_eff * nr;
#ifndef NDEBUG
          // B-panel rows feed the aligned vector loads; each panel starts a
          // kc_eff·nr·4 byte (a multiple of 64) offset past the aligned base.
          simd::check_panel_alignment(b_buf, bp);
#endif
          const Index c0 = jc + jr;
          const float* bias = bias_base != nullptr ? bias_base + c0 : nullptr;
          for (Index ir = 0; ir < mc_eff; ir += mr) {
            const float* ap = a_buf + (ir / mr) * kc_eff * mr;
            const Index r0 = ic + ir;
            const float* act_p =
                act != nullptr ? act->data() + r0 * act_ld + c0 : nullptr;
            uk.fn(ap, bp, kc_eff, alpha, beta, first_k, last_k, bias, act_p,
                  act_ld, c.row(r0) + c0, ldc, std::min(mr, mc_eff - ir),
                  std::min(nr, nc_eff - jr));
          }
        }
      }
    }
  }
}

// Degenerate case (k == 0 or alpha == 0): no accumulation loop runs, so the
// beta scaling and the epilogue are applied in one standalone parallel pass.
void apply_beta_epilogue(Matrix& c, float beta, const GemmEpilogue& ep) {
  const Index rows = c.rows();
  const Index cols = c.cols();
  const float* bias = ep.bias != nullptr ? ep.bias->data() : nullptr;
#pragma omp parallel for schedule(static)
  for (Index r = 0; r < rows; ++r) {
    float* crow = c.row(r);
    const float* arow =
        ep.act != nullptr ? ep.act->row(r) : nullptr;
    for (Index j = 0; j < cols; ++j) {
      float v = beta == 0.0f ? 0.0f : beta * crow[j];
      switch (ep.op) {
        case EpilogueOp::kNone:
          break;
        case EpilogueOp::kBiasAdd:
          v += bias[j];
          break;
        case EpilogueOp::kBiasSigmoid:
          v = simd::sigmoid_scalar(v + bias[j]);
          break;
        case EpilogueOp::kDsigmoidMul:
          v *= arow[j] * (1.0f - arow[j]);
          break;
        case EpilogueOp::kBiasDsigmoidMul:
          v = (v + bias[j]) * arow[j] * (1.0f - arow[j]);
          break;
      }
      crow[j] = v;
    }
  }
}

// Per-element loop-class cost of a *fused* epilogue, mirrored exactly by
// core/cost_accounting (the model==measure contract). Fused epilogues carry
// no C traffic — the tile is cache-hot at write-back — only the flops and
// the streamed reads of `act`. Recorded only when run_blocked actually fuses;
// the degenerate path records record_beta_epilogue_pass instead.
void record_epilogue(const GemmEpilogue& ep, Index m, Index n) {
  if (ep.op != EpilogueOp::kNone) {
    static obs::Counter& fused = obs::counter("gemm.fused_epilogues");
    fused.add();
  }
  switch (ep.op) {
    case EpilogueOp::kNone:
      return;
    case EpilogueOp::kBiasAdd:
      phi::record(phi::epilogue_contribution(m * n, 1.0, 0.0));
      return;
    case EpilogueOp::kBiasSigmoid:
      phi::record(phi::epilogue_contribution(m * n, 9.0, 0.0));
      return;
    case EpilogueOp::kDsigmoidMul:
      phi::record(phi::epilogue_contribution(m * n, 3.0, 1.0));
      return;
    case EpilogueOp::kBiasDsigmoidMul:
      phi::record(phi::epilogue_contribution(m * n, 4.0, 1.0));
      return;
  }
}

// Cost of the standalone apply_beta_epilogue pass (ka == 0 / alpha == 0):
// unlike the fused write-back it streams the full C matrix — a C read per
// element when beta != 0, always a C write — so it is plain loop work, not a
// fused epilogue. Its kernel launch is already carried by gemm_contribution
// (one parallel region per gemm_blocked call on every path).
void record_beta_epilogue_pass(const GemmEpilogue& ep, float beta, Index m,
                               Index n) {
  double flops = beta == 0.0f ? 0.0 : 1.0;
  double reads = beta == 0.0f ? 0.0 : 1.0;
  switch (ep.op) {
    case EpilogueOp::kNone:
      break;
    case EpilogueOp::kBiasAdd:
      flops += 1.0;
      break;
    case EpilogueOp::kBiasSigmoid:
      flops += 9.0;
      break;
    case EpilogueOp::kDsigmoidMul:
      flops += 3.0;
      reads += 1.0;
      break;
    case EpilogueOp::kBiasDsigmoidMul:
      flops += 4.0;
      reads += 1.0;
      break;
  }
  phi::KernelStats s = phi::loop_contribution(m * n, flops, reads, 1.0);
  s.kernel_launches = 0;
  phi::record(s);
}

// Grid decomposition + parallel tile loop. The per-epilogue codegen lives
// behind the dispatched micro-kernel pointer, selected once per call
// together with the tier's register tile.
void run_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                 const Matrix& b, float beta, Matrix& c, const GemmBlocking& bl,
                 const GemmEpilogue& ep, Index m, Index n, Index k) {
  const simd::KernelTable& tab = simd::active();
  const MicroKernel uk{tab.gemm_micro[static_cast<int>(ep.op)], tab.mr,
                       tab.nr};
  const Index mr = uk.mr;
  const Index nr = uk.nr;
  // 2-D (ic, jc) tile grid over C. The grid starts as one tile covering all
  // of C and is split — at register-tile granularity, preferring the
  // dimension with more room — only until it covers the thread count, so
  // each thread owns about one tile and packs each of its B blocks once
  // (gemm_tile walks the mc/nc cache blocks inside a tile), while skinny
  // products (gemm_tn gradients with small m) still use every core. The
  // decomposition never changes results: tiles are disjoint and each
  // element's k-accumulation order is fixed by bl.kc alone.
  int max_threads = 1;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  Index tile_m = m;
  Index tile_n = n;
  auto grid_size = [&] {
    return ((m + tile_m - 1) / tile_m) * ((n + tile_n - 1) / tile_n);
  };
  while (grid_size() < max_threads && (tile_m > mr || tile_n > nr)) {
    // Split only a dimension that can still shrink: halving a tile already at
    // its register-tile floor returns it unchanged, so picking it would spin
    // forever (e.g. tile_m == mr with nr < tile_n < 2·nr).
    if (tile_m > mr && (tile_n <= nr || tile_m / mr >= tile_n / nr)) {
      tile_m = std::max<Index>(mr, (tile_m / 2 + mr - 1) / mr * mr);
    } else {
      tile_n = std::max<Index>(nr, (tile_n / 2 + nr - 1) / nr * nr);
    }
  }
  const Index grid_m = (m + tile_m - 1) / tile_m;
  const Index grid_n = (n + tile_n - 1) / tile_n;
  const Index tiles = grid_m * grid_n;

  // Per-thread packing space: one arena allocation holding the A panel (at
  // offset 0) and the B panel (at the next 64-byte boundary).
  const Index a_buf_elems = (bl.mc + mr - 1) / mr * mr * bl.kc;
  const Index b_buf_elems = (bl.nc + nr - 1) / nr * nr * bl.kc;
  const std::size_t a_span =
      (static_cast<std::size_t>(a_buf_elems) + 15) / 16 * 16;
  const std::size_t arena_elems = a_span + static_cast<std::size_t>(b_buf_elems);

#pragma omp parallel
  {
    int nthreads = 1, tid = 0;
#ifdef _OPENMP
    nthreads = omp_get_num_threads();
    tid = omp_get_thread_num();
#endif
    if (tid < tiles) {
      float* buf = pack_arena(arena_elems);
      float* a_buf = buf;
      float* b_buf = buf + a_span;
      // Both panels sit on 64-byte boundaries (arena base + a_span, a
      // multiple of 16 floats) — the aligned-load contract of the vector
      // micro-kernels.
      simd::check_panel_alignment(a_buf, b_buf);
      for (Index t = tid; t < tiles; t += nthreads) {
        const Index tr = t / grid_n;
        const Index tc = t % grid_n;
        const Index row_begin = tr * tile_m;
        const Index row_end = std::min(row_begin + tile_m, m);
        const Index col_begin = tc * tile_n;
        const Index col_end = std::min(col_begin + tile_n, n);
        gemm_tile(trans_a, trans_b, alpha, beta, a, b, c, row_begin, row_end,
                  col_begin, col_end, k, bl, a_buf, b_buf, ep, uk);
      }
    }
  }
}

}  // namespace

void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& bl, const GemmEpilogue& ep) {
  DEEPPHI_PROFILE_SCOPE("gemm");
  const Index m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const Index ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const Index kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const Index n = trans_b == Trans::kNo ? b.cols() : b.rows();
  DEEPPHI_CHECK_MSG(ka == kb, "gemm inner dims: op(A) is " << m << "x" << ka
                                                           << ", op(B) is " << kb
                                                           << "x" << n);
  DEEPPHI_CHECK_MSG(c.rows() == m && c.cols() == n,
                    "gemm C must be " << m << "x" << n << ", got " << c.rows()
                                      << "x" << c.cols());
  DEEPPHI_CHECK_MSG(bl.mc > 0 && bl.kc > 0 && bl.nc > 0, "non-positive blocking");
  if (ep.op == EpilogueOp::kBiasAdd || ep.op == EpilogueOp::kBiasSigmoid ||
      ep.op == EpilogueOp::kBiasDsigmoidMul) {
    DEEPPHI_CHECK_MSG(ep.bias != nullptr && ep.bias->size() == n,
                      "epilogue bias must have size " << n);
  }
  if (ep.op == EpilogueOp::kDsigmoidMul ||
      ep.op == EpilogueOp::kBiasDsigmoidMul) {
    DEEPPHI_CHECK_MSG(ep.act != nullptr && ep.act->rows() == m &&
                          ep.act->cols() == n && ep.act->data() != c.data(),
                      "epilogue act must be a distinct " << m << "x" << n
                                                         << " matrix");
  }
  phi::record(phi::gemm_contribution(m, n, ka));
  if (m == 0 || n == 0) return;

  if (ka == 0 || alpha == 0.0f) {
    record_beta_epilogue_pass(ep, beta, m, n);
    apply_beta_epilogue(c, beta, ep);
    return;
  }

  record_epilogue(ep, m, n);
  run_blocked(trans_a, trans_b, alpha, a, b, beta, c, bl, ep, m, n, ka);
}

void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& bl) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c, bl, GemmEpilogue{});
}

void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix& c) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c, GemmBlocking{},
               GemmEpilogue{});
}

void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix& c, const GemmEpilogue& ep) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c, GemmBlocking{}, ep);
}

}  // namespace deepphi::la
