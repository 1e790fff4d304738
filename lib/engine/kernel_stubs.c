/* The C kernels of the Slab engine: every levelized rank runs here.
 *
 * hydra_settle_block(values, desc) evaluates one levelized rank of the
 * shared Kernel program directly over the OCaml int-array slab: one
 * descriptor per rank, or per rank of a cone.  A rank's members are
 * mutually independent, so the stub runs them kind by kind in
 * descriptor order.  The descriptor layout is Kernel's rank descriptor
 * (kernel.mli, "The rank descriptor"), in Slab's copy: slot 0 holds k
 * and every index is pre-scaled by k, so a gate's K words live at
 * consecutive addresses and the inner w-loops vectorize.
 *
 * All arithmetic runs on the tagged representation (t = 2v + 1):
 *   - and/or preserve the tag:   (2a+1) & (2b+1) = 2(a&b) + 1
 *   - xor clears it:             (2a+1) ^ (2b+1) = 2(a^b), so re-| 1
 *   - inv via the shifted mask:  ~(2a+1) = 2(~a); & (lane_mask << 1)
 *     drops the sign/overflow bits, then | 1 re-tags
 * so tagged words load straight into vector lanes: one AVX2 register
 * holds 4 tagged 62-lane words, one NEON register holds 2.
 *
 * hydra_tick(values, next, dffs, srcs, k) latches every dff: it
 * gathers each driver's k words into the staging array next, then
 * copies them to the dffs, so a dff whose driver is a dff reads the
 * pre-tick word.  dffs and srcs hold the pre-scaled slab bases.
 *
 * Two lane passes answer a fault campaign's per-cycle questions with
 * one lane mask per slab word, written into the caller's k-word array
 * out and masked to the 62 lanes:
 *   - hydra_diff_lanes(values, sites, out): out[w] is the OR over the
 *     sites of word w xor lane 0's bit broadcast, the lanes that differ
 *     from lane 0 at some site;
 *   - hydra_latch_lanes(values, dffs, srcs, out): out[w] is the OR over
 *     the dffs of the dff's word w xor its driver's, after a settle the
 *     lanes where some dff latches a change at the next tick.
 *
 * Preconditions.  The stubs check nothing; every bound they rely on is
 * established once, in OCaml, by the function named.  Throughout, size
 * is the program's component count, k its words per signal, and values
 * holds size * k words plus a pad (Slab.fresh); "a base" is i * k with
 * 0 <= i < size, so words base .. base + k - 1 lie in values.
 *
 *   entry point, array      bound relied on           established by
 *   hydra_settle_block
 *     desc                  desc[0] = the slab's k;   Slab.of_program (it
 *                           desc[1..8] >= 0 and desc    checks the counts
 *                           holds the words they        against the length);
 *                           count                       the cone builder
 *                                                       (writes the counts
 *                                                       of what it writes)
 *     values via desc       every tuple word a base   Slab.of_program (each
 *                                                       index); the cone
 *                                                       builder (members
 *                                                       checked by Slab.cone
 *                                                       or found by the
 *                                                       fanout walk, sources
 *                                                       read through its
 *                                                       size-n mark bytes)
 *   hydra_tick
 *     dffs, srcs            same length, each entry   Slab.of_program (length
 *                           a base                      and check_index, on
 *                                                       its own copies)
 *     next                  >= Wosize(dffs) * k       Slab.fresh
 *     k                     the slab's k              Slab.tick
 *   hydra_diff_lanes
 *     sites                 each entry a base of      Slab.sites, check_pass
 *                           this slab's program
 *     out                   Wosize(out) = k           check_pass
 *   hydra_latch_lanes
 *     dffs, srcs            each entry a base of      Slab.sites, check_pass
 *                           this slab's program;
 *                           same length               Slab.latch_lanes
 *     out                   Wosize(out) = k           check_pass
 *
 * The stubs never allocate, never touch the OCaml runtime and never
 * release the domain lock ([@@noalloc] on the OCaml side), so the
 * arrays cannot move while they run.  Vector paths are chosen at
 * compile time: -mavx2 comes from the dune probe rule (which requires the
 * host to both compile and *run* AVX2), NEON is baseline on aarch64;
 * HYDRA_SIMD=off at build time selects the portable scalar C.
 */

#include <caml/mlvalues.h>

#if defined(__AVX2__)
#include <immintrin.h>
#define HYDRA_SIMD_KIND 2
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define HYDRA_SIMD_KIND 1
#else
#define HYDRA_SIMD_KIND 0
#endif

/* lane_mask << 1: keeps the 62 payload bits of a tagged word, clears
 * the tag and the two top bits. */
#define M2 ((value)0x7FFFFFFFFFFFFFFEULL)

#if HYDRA_SIMD_KIND == 2
#define VLOAD(a, w) _mm256_loadu_si256((const __m256i *)((a) + (w)))
#define VSTORE(a, w, x) _mm256_storeu_si256((__m256i *)((a) + (w)), (x))
#define VEC_STEP 4
#elif HYDRA_SIMD_KIND == 1
#define VLOAD(a, w) vld1q_s64((const int64_t *)((a) + (w)))
#define VSTORE(a, w, x) vst1q_s64((int64_t *)((a) + (w)), (x))
#define VEC_STEP 2
#endif

CAMLprim value hydra_simd_kind(value unit)
{
  (void)unit;
  return Val_long(HYDRA_SIMD_KIND);
}

/* dst[0..k) = src[0..k): an outport's settle, or one dff's latch. */
static inline __attribute__((always_inline)) void
copy_k(value *dst, const value *src, const long k)
{
  long w = 0;
#if HYDRA_SIMD_KIND >= 1
  for (; w + VEC_STEP <= k; w += VEC_STEP)
    VSTORE(dst, w, VLOAD(src, w));
#endif
  for (; w < k; w++)
    dst[w] = src[w];
}

/* The rank kernel body, as a function of k.  Always inlined, so each
 * call site is its own specialisation: with the literal k = 1 the
 * compiler drops the vector loops and the tail loops collapse to one
 * word per gate. */
static inline __attribute__((always_inline)) void
settle_block_k(value *vals, const value *d, const long k)
{
  const value *p = d + 9;
  long n, j, w;

#if HYDRA_SIMD_KIND == 2
  const __m256i vtag = _mm256_set1_epi64x(1);
  const __m256i vm2 = _mm256_set1_epi64x((long long)M2);
#elif HYDRA_SIMD_KIND == 1
  const int64x2_t vtag = vdupq_n_s64(1);
  const int64x2_t vm2 = vdupq_n_s64((long long)M2);
#endif

  /* inv: dst = (~src & M2) | 1 */
  n = Long_val(d[1]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *src = vals + Long_val(p[1]);
    p += 2;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             _mm256_or_si256(_mm256_andnot_si256(VLOAD(src, w), vm2), vtag));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w, vorrq_s64(vbicq_s64(vm2, VLOAD(src, w)), vtag));
#endif
    for (; w < k; w++)
      dst[w] = (~src[w] & M2) | 1;
  }

  /* and2: tags preserved */
  n = Long_val(d[2]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *s0 = vals + Long_val(p[1]);
    const value *s1 = vals + Long_val(p[2]);
    p += 3;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w, _mm256_and_si256(VLOAD(s0, w), VLOAD(s1, w)));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w, vandq_s64(VLOAD(s0, w), VLOAD(s1, w)));
#endif
    for (; w < k; w++)
      dst[w] = s0[w] & s1[w];
  }

  /* or2: tags preserved */
  n = Long_val(d[3]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *s0 = vals + Long_val(p[1]);
    const value *s1 = vals + Long_val(p[2]);
    p += 3;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w, _mm256_or_si256(VLOAD(s0, w), VLOAD(s1, w)));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w, vorrq_s64(VLOAD(s0, w), VLOAD(s1, w)));
#endif
    for (; w < k; w++)
      dst[w] = s0[w] | s1[w];
  }

  /* xor2: re-tag */
  n = Long_val(d[4]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *s0 = vals + Long_val(p[1]);
    const value *s1 = vals + Long_val(p[2]);
    p += 3;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             _mm256_or_si256(_mm256_xor_si256(VLOAD(s0, w), VLOAD(s1, w)),
                             vtag));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w, vorrq_s64(veorq_s64(VLOAD(s0, w), VLOAD(s1, w)), vtag));
#endif
    for (; w < k; w++)
      dst[w] = (s0[w] ^ s1[w]) | 1;
  }

  /* andor: dst = (a & b) | (c & e) — tags preserved */
  n = Long_val(d[5]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *a = vals + Long_val(p[1]);
    const value *b = vals + Long_val(p[2]);
    const value *c = vals + Long_val(p[3]);
    const value *e = vals + Long_val(p[4]);
    p += 5;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             _mm256_or_si256(_mm256_and_si256(VLOAD(a, w), VLOAD(b, w)),
                             _mm256_and_si256(VLOAD(c, w), VLOAD(e, w))));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             vorrq_s64(vandq_s64(VLOAD(a, w), VLOAD(b, w)),
                       vandq_s64(VLOAD(c, w), VLOAD(e, w))));
#endif
    for (; w < k; w++)
      dst[w] = (a[w] & b[w]) | (c[w] & e[w]);
  }

  /* orand: dst = (a & b) | c — tags preserved */
  n = Long_val(d[6]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *a = vals + Long_val(p[1]);
    const value *b = vals + Long_val(p[2]);
    const value *c = vals + Long_val(p[3]);
    p += 4;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             _mm256_or_si256(_mm256_and_si256(VLOAD(a, w), VLOAD(b, w)),
                             VLOAD(c, w)));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             vorrq_s64(vandq_s64(VLOAD(a, w), VLOAD(b, w)), VLOAD(c, w)));
#endif
    for (; w < k; w++)
      dst[w] = (a[w] & b[w]) | c[w];
  }

  /* xor3: dst = a ^ b ^ c — two xors leave the tag set */
  n = Long_val(d[7]);
  for (j = 0; j < n; j++) {
    value *dst = vals + Long_val(p[0]);
    const value *a = vals + Long_val(p[1]);
    const value *b = vals + Long_val(p[2]);
    const value *c = vals + Long_val(p[3]);
    p += 4;
    w = 0;
#if HYDRA_SIMD_KIND == 2
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             _mm256_xor_si256(_mm256_xor_si256(VLOAD(a, w), VLOAD(b, w)),
                              VLOAD(c, w)));
#elif HYDRA_SIMD_KIND == 1
    for (; w + VEC_STEP <= k; w += VEC_STEP)
      VSTORE(dst, w,
             veorq_s64(veorq_s64(VLOAD(a, w), VLOAD(b, w)), VLOAD(c, w)));
#endif
    for (; w < k; w++)
      dst[w] = a[w] ^ b[w] ^ c[w];
  }

  /* outports: plain copies */
  n = Long_val(d[8]);
  for (j = 0; j < n; j++) {
    copy_k(vals + Long_val(p[0]), vals + Long_val(p[1]), k);
    p += 2;
  }
}

CAMLprim value hydra_settle_block(value v_values, value v_desc)
{
  value *vals = Op_val(v_values);
  const value *d = Op_val(v_desc);
  const long k = Long_val(d[0]);
  if (k == 1)
    settle_block_k(vals, d, 1);
  else
    settle_block_k(vals, d, k);
  return Val_unit;
}

/* The tick body, as a function of k, specialised like settle_block_k. */
static inline __attribute__((always_inline)) void
tick_k(value *vals, value *next, const value *dffs, const value *srcs,
       const long n, const long k)
{
  long j;
  for (j = 0; j < n; j++)
    copy_k(next + j * k, vals + Long_val(srcs[j]), k);
  for (j = 0; j < n; j++)
    copy_k(vals + Long_val(dffs[j]), next + j * k, k);
}

CAMLprim value hydra_tick(value v_values, value v_next, value v_dffs,
                          value v_srcs, value v_k)
{
  value *vals = Op_val(v_values);
  value *next = Op_val(v_next);
  const value *dffs = Op_val(v_dffs);
  const value *srcs = Op_val(v_srcs);
  const long n = Wosize_val(v_dffs);
  const long k = Long_val(v_k);
  if (k == 1)
    tick_k(vals, next, dffs, srcs, n, 1);
  else
    tick_k(vals, next, dffs, srcs, n, k);
  return Val_unit;
}

/* The lane passes' bodies, specialised like settle_block_k.  Words go
 * four at a time, then one at a time; each gathers its mask in a
 * register over all the sites and is stored once.  The xor of two
 * tagged words clears the tag, the OR into a tagged zero restores it,
 * and the final mask drops the sign bit that a complemented word
 * brings in. */
#define MASKED(x) ((x) & (M2 | 1))

static inline __attribute__((always_inline)) void
diff_k(const value *vals, const value *sites, const long n, value *out,
       const long k)
{
  long j, w = 0;
  for (; w + 4 <= k; w += 4) {
    value a0 = Val_long(0), a1 = a0, a2 = a0, a3 = a0;
    for (j = 0; j < n; j++) {
      const value *s = vals + Long_val(sites[j]);
      /* lane 0's bit as an all-ones or all-zeros mask: s[w] ^ g holds a
       * payload bit for every lane that differs from lane 0 */
      const value g = -((s[0] >> 1) & 1);
      a0 |= s[w] ^ g;
      a1 |= s[w + 1] ^ g;
      a2 |= s[w + 2] ^ g;
      a3 |= s[w + 3] ^ g;
    }
    out[w] = MASKED(a0);
    out[w + 1] = MASKED(a1);
    out[w + 2] = MASKED(a2);
    out[w + 3] = MASKED(a3);
  }
  for (; w < k; w++) {
    value a0 = Val_long(0);
    for (j = 0; j < n; j++) {
      const value *s = vals + Long_val(sites[j]);
      a0 |= s[w] ^ -((s[0] >> 1) & 1);
    }
    out[w] = MASKED(a0);
  }
}

static inline __attribute__((always_inline)) void
latch_k(const value *vals, const value *dffs, const value *srcs, const long n,
        value *out, const long k)
{
  long j, w = 0;
  for (; w + 4 <= k; w += 4) {
    value a0 = Val_long(0), a1 = a0, a2 = a0, a3 = a0;
    for (j = 0; j < n; j++) {
      const value *d = vals + Long_val(dffs[j]);
      const value *s = vals + Long_val(srcs[j]);
      a0 |= d[w] ^ s[w];
      a1 |= d[w + 1] ^ s[w + 1];
      a2 |= d[w + 2] ^ s[w + 2];
      a3 |= d[w + 3] ^ s[w + 3];
    }
    out[w] = MASKED(a0);
    out[w + 1] = MASKED(a1);
    out[w + 2] = MASKED(a2);
    out[w + 3] = MASKED(a3);
  }
  for (; w < k; w++) {
    value a0 = Val_long(0);
    for (j = 0; j < n; j++)
      a0 |= vals[Long_val(dffs[j]) + w] ^ vals[Long_val(srcs[j]) + w];
    out[w] = MASKED(a0);
  }
}

CAMLprim value hydra_diff_lanes(value v_values, value v_sites, value v_out)
{
  const value *vals = Op_val(v_values);
  const value *sites = Op_val(v_sites);
  value *out = Op_val(v_out);
  const long n = Wosize_val(v_sites);
  const long k = Wosize_val(v_out);
  if (k == 1)
    diff_k(vals, sites, n, out, 1);
  else
    diff_k(vals, sites, n, out, k);
  return Val_unit;
}

CAMLprim value hydra_latch_lanes(value v_values, value v_dffs, value v_srcs,
                                 value v_out)
{
  const value *vals = Op_val(v_values);
  const value *dffs = Op_val(v_dffs);
  const value *srcs = Op_val(v_srcs);
  value *out = Op_val(v_out);
  const long n = Wosize_val(v_dffs);
  const long k = Wosize_val(v_out);
  if (k == 1)
    latch_k(vals, dffs, srcs, n, out, 1);
  else
    latch_k(vals, dffs, srcs, n, out, k);
  return Val_unit;
}
