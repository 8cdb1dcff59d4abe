"""Optional compiled core of the packed kernel engine.

This module owns the native half of :mod:`repro.tpn.kernel`: a small C
translation unit (embedded below as a string, so the sdist needs no
extra data files) compiled on demand through cffi's API mode into a
shared object cached next to this package.  Everything degrades
gracefully — the kernel engine asks :func:`load` for the compiled
module and falls back to its pure-Python core whenever the answer is
``None``:

* ``EZRT_PURE=1`` in the environment force-disables the compiled core
  (CI runs the whole test suite once in this mode);
* a missing cffi, a missing C compiler, an unwritable cache directory
  or any other build/import failure is swallowed after recording the
  exception on :data:`LOAD_ERROR` for diagnostics.

The C core operates *in place* on the same packed buffers the Python
side owns (``array('H')`` marking and clock vectors), so there is no
per-state marshalling.  It has two layers:

* per-step entry points (``kn_successor``, ``kn_candidates``,
  ``kn_window``, ``kn_hash``) — one foreign call per successor or
  candidate list, used by :class:`repro.tpn.kernel.KernelEngine`'s
  public step API;
* the search driver (``kn_search_*``) — the whole depth-first search
  of :class:`repro.scheduler.core.SearchCore` over the same buffers:
  frame stack, state arena, full-equality visited table, deadline and
  final predicates, candidate enumeration in every delay and priority
  mode, the partial-order reduction, the ``latest`` and ``min-laxity``
  search policies and the state budget.  It returns to Python only at
  the 1024-expansion poll, when a new frame needs the seeded
  ``random`` policy, and at the end of the search (see
  ``docs/scheduling.md``, "The native search drivers").  Its memory
  comes from ``PyMem_RawMalloc``, so ``tracemalloc`` sees it, and the
  GIL stays released for the whole call.

Build caching: the shared object lands in ``_kernelc_build/<digest>/``
beside this file, keyed by a digest of the C source; the build, cache
and load logic is shared with the DBM core in :mod:`repro.tpn._native`.

CI builds eagerly via ``python -m repro.tpn._kernelc``; see
``pyproject.toml``'s ``native`` extra for the cffi pin.
"""

from __future__ import annotations

from repro.tpn._native import PURE_ENV, NativeCore

_MODULE_NAME = "_ezrt_kernel"

# The foreign function surface, shared between ffi.cdef and the
# translation unit below.
CDEF = """
typedef struct kn_net kn_net;
kn_net *kn_net_new(int32_t num_places, int32_t num_transitions,
                   const int32_t *pre_off, const int32_t *pre_place,
                   const int32_t *pre_w,
                   const int32_t *delta_off, const int32_t *delta_place,
                   const int32_t *delta_d,
                   const int32_t *aff_off, const int32_t *aff_t,
                   const int32_t *pc_off, const int32_t *pc_t,
                   const int32_t *eft, const int32_t *lft,
                   const int32_t *prio, const uint8_t *flags,
                   int32_t n_miss, const int32_t *miss_place,
                   int32_t n_final, const int32_t *final_place,
                   const int32_t *final_req, const int32_t *timer);
void kn_net_free(kn_net *net);
uint64_t kn_hash(const kn_net *net, const uint16_t *mark,
                 const uint16_t *clk);
int32_t kn_successor(const kn_net *net, const uint16_t *old_mark,
                     const uint16_t *old_clk, uint16_t *mark,
                     uint16_t *clk, uint64_t *hash_io, int32_t t,
                     int32_t q, int32_t intermediate);
int32_t kn_candidates(const kn_net *net, const uint16_t *clk,
                      int32_t strict, int32_t partial_order,
                      int32_t *out, int32_t *reduced);
int32_t kn_window(const kn_net *net, const uint16_t *clk,
                  int32_t *out, int32_t *ceiling_out);

typedef struct {
    int64_t visited, generated, revisits, prunes, backtracks;
    int64_t reductions, depth;
    int64_t succ_ns, succ_calls, cand_ns, cand_calls;
    int64_t visited_bytes;
    int32_t pending;
    int32_t fault;
} kn_counters;
typedef struct kn_search kn_search;
kn_search *kn_search_new(const kn_net *net, const uint16_t *mark0,
                         const uint16_t *clk0, uint64_t key0,
                         int64_t now0, int32_t options,
                         int64_t max_states, kn_counters *counters);
int32_t kn_search_run(kn_search *s);
int32_t *kn_search_pending(kn_search *s);
void kn_search_path(const kn_search *s, int64_t *out);
void kn_search_free(kn_search *s);
"""

# The successor/firable/min-DUB inner loop over the packed buffers.
# Semantics are line-for-line the pure-Python core of
# repro.tpn.kernel.KernelEngine (which mirrors the checked reference
# engine of repro.tpn.state); the two are locked together by the
# native-vs-pure differential suite in tests/test_kernel_engine.py, and
# the driver is locked to SearchCore by tests/test_kernel_driver.py.
# DIS (0xFFFF) marks a disabled transition's clock; lft < 0 encodes an
# unbounded LFT; flag bits: 1 = immediate [0,0], 2 = deadline-miss,
# 4 = structurally conflict-free, 8 = touches a deadline-miss place,
# 16 = touches a final-constrained place.
SOURCE = r"""
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#define KN_DIS 0xFFFFu
#define KN_INF_CEILING INT32_MAX

/* CPython's raw allocator domain: thread-safe without the GIL and
 * traced by tracemalloc.  Declared here because cffi may build against
 * the limited API, whose headers hide it before 3.13. */
void *PyMem_RawMalloc(size_t size);
void *PyMem_RawCalloc(size_t nelem, size_t elsize);
void *PyMem_RawRealloc(void *ptr, size_t new_size);
void PyMem_RawFree(void *ptr);

typedef struct kn_net {
    int32_t P, T;
    const int32_t *pre_off, *pre_place, *pre_w;
    const int32_t *delta_off, *delta_place, *delta_d;
    const int32_t *aff_off, *aff_t;
    const int32_t *pc_off, *pc_t;
    const int32_t *eft, *lft, *prio;
    const uint8_t *flags;
    int32_t n_miss, n_final;
    const int32_t *miss_place, *final_place, *final_req;
    const int32_t *timer; /* deadline timer per transition, -1 = none */
    uint16_t *scratch; /* P words: intermediate-marking reference */
    int32_t *cand;     /* 2T words: pre-expansion candidate pairs */
} kn_net;

kn_net *kn_net_new(int32_t num_places, int32_t num_transitions,
                   const int32_t *pre_off, const int32_t *pre_place,
                   const int32_t *pre_w,
                   const int32_t *delta_off, const int32_t *delta_place,
                   const int32_t *delta_d,
                   const int32_t *aff_off, const int32_t *aff_t,
                   const int32_t *pc_off, const int32_t *pc_t,
                   const int32_t *eft, const int32_t *lft,
                   const int32_t *prio, const uint8_t *flags,
                   int32_t n_miss, const int32_t *miss_place,
                   int32_t n_final, const int32_t *final_place,
                   const int32_t *final_req, const int32_t *timer)
{
    kn_net *net = (kn_net *)malloc(sizeof(kn_net));
    if (!net)
        return NULL;
    net->P = num_places;
    net->T = num_transitions;
    net->pre_off = pre_off;
    net->pre_place = pre_place;
    net->pre_w = pre_w;
    net->delta_off = delta_off;
    net->delta_place = delta_place;
    net->delta_d = delta_d;
    net->aff_off = aff_off;
    net->aff_t = aff_t;
    net->pc_off = pc_off;
    net->pc_t = pc_t;
    net->eft = eft;
    net->lft = lft;
    net->prio = prio;
    net->flags = flags;
    net->n_miss = n_miss;
    net->miss_place = miss_place;
    net->n_final = n_final;
    net->final_place = final_place;
    net->final_req = final_req;
    net->timer = timer;
    net->scratch = (uint16_t *)malloc(
        (num_places ? (size_t)num_places : 1) * sizeof(uint16_t));
    net->cand = (int32_t *)malloc(
        2 * (num_transitions ? (size_t)num_transitions : 1)
        * sizeof(int32_t));
    if (!net->scratch || !net->cand) {
        free(net->scratch);
        free(net->cand);
        free(net);
        return NULL;
    }
    return net;
}

void kn_net_free(kn_net *net)
{
    if (net) {
        free(net->scratch);
        free(net->cand);
        free(net);
    }
}

/* splitmix64 finalizer: the functional Zobrist key generator.  No
 * tables — the key of (kind, index, value) is the mix of one packed
 * word, identical to repro.tpn.kernel._mix on the Python side. */
static uint64_t kn_mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static uint64_t kn_zm(int32_t p, uint32_t v)
{
    return kn_mix(((uint64_t)1 << 62) ^ ((uint64_t)p << 20) ^ v);
}

static uint64_t kn_zc(int32_t t, uint32_t v)
{
    return kn_mix(((uint64_t)2 << 62) ^ ((uint64_t)t << 20) ^ v);
}

uint64_t kn_hash(const kn_net *net, const uint16_t *mark,
                 const uint16_t *clk)
{
    uint64_t h = 0;
    int32_t i;
    for (i = 0; i < net->P; i++)
        h ^= kn_zm(i, mark[i]);
    for (i = 0; i < net->T; i++)
        h ^= kn_zc(i, clk[i]);
    return h;
}

/* Definition 3.1 over the packed buffers.  `mark`/`clk` arrive as
 * copies of `old_mark`/`old_clk` and are mutated in place; the state
 * hash is maintained incrementally (XOR out the old word, XOR in the
 * new one).  Returns 0 on success, 1 on marking overflow (> 0xFFFF
 * tokens in a place), 2 on clock overflow (>= 0xFFFF). */
int32_t kn_successor(const kn_net *net, const uint16_t *old_mark,
                     const uint16_t *old_clk, uint16_t *mark,
                     uint16_t *clk, uint64_t *hash_io, int32_t t,
                     int32_t q, int32_t intermediate)
{
    uint64_t h = *hash_io;
    int32_t i, j;
    const uint16_t *ref = NULL;

    for (i = net->delta_off[t]; i < net->delta_off[t + 1]; i++) {
        int32_t p = net->delta_place[i];
        int32_t nv = (int32_t)mark[p] + net->delta_d[i];
        if (nv < 0 || nv > 0xFFFF)
            return 1;
        h ^= kn_zm(p, mark[p]) ^ kn_zm(p, (uint32_t)nv);
        mark[p] = (uint16_t)nv;
    }

    if (q) {
        int32_t T = net->T;
        for (j = 0; j < T; j++) {
            uint32_t v = clk[j];
            if (v != KN_DIS) {
                uint32_t nv = v + (uint32_t)q;
                if (nv >= KN_DIS)
                    return 2;
                h ^= kn_zc(j, v) ^ kn_zc(j, nv);
                clk[j] = (uint16_t)nv;
            }
        }
    }

    if (intermediate) {
        /* enabledness transiently re-checked against m - W(., t) */
        memcpy(net->scratch, old_mark,
               (size_t)net->P * sizeof(uint16_t));
        for (i = net->pre_off[t]; i < net->pre_off[t + 1]; i++)
            net->scratch[net->pre_place[i]] -=
                (uint16_t)net->pre_w[i];
        ref = net->scratch;
    }

    for (i = net->aff_off[t]; i < net->aff_off[t + 1]; i++) {
        int32_t tk = net->aff_t[i];
        uint32_t oldc = old_clk[tk];
        int enabled_now = 1;
        for (j = net->pre_off[tk]; j < net->pre_off[tk + 1]; j++) {
            if (mark[net->pre_place[j]] < net->pre_w[j]) {
                enabled_now = 0;
                break;
            }
        }
        if (!enabled_now) {
            if (oldc != KN_DIS) {
                h ^= kn_zc(tk, clk[tk]) ^ kn_zc(tk, KN_DIS);
                clk[tk] = (uint16_t)KN_DIS;
            }
        } else if (oldc == KN_DIS) {
            /* newly enabled: clock resets to zero (the bulk advance
             * skipped disabled entries, so clk[tk] is still DIS) */
            h ^= kn_zc(tk, KN_DIS) ^ kn_zc(tk, 0u);
            clk[tk] = 0;
        } else {
            int reset = (tk == t);
            if (!reset && ref) {
                for (j = net->pre_off[tk]; j < net->pre_off[tk + 1];
                     j++) {
                    if (ref[net->pre_place[j]] < net->pre_w[j]) {
                        reset = 1;
                        break;
                    }
                }
            }
            if (reset) {
                uint32_t cur = clk[tk];
                if (cur) {
                    h ^= kn_zc(tk, cur) ^ kn_zc(tk, 0u);
                    clk[tk] = 0;
                }
            }
            /* else persistent: the bulk advance already set it */
        }
    }
    *hash_io = h;
    return 0;
}

/* Min-DUB ceiling plus the unfiltered (transition, lower) firing
 * window in ascending index order; deadline-miss transitions never
 * become candidates but their LFTs still cap the ceiling. */
static int32_t kn_scan(const kn_net *net, const uint16_t *clk,
                       int32_t *out, int32_t *ceiling_out)
{
    int32_t T = net->T;
    int32_t ceiling = KN_INF_CEILING;
    int32_t tk, n = 0;

    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int32_t l;
        if (v == KN_DIS)
            continue;
        l = net->lft[tk];
        if (l < 0)
            continue; /* unbounded LFT */
        l -= (int32_t)v;
        if (l < ceiling)
            ceiling = l;
    }
    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int32_t lo;
        if (v == KN_DIS || (net->flags[tk] & 2))
            continue; /* disabled or deadline-miss */
        lo = net->eft[tk] - (int32_t)v;
        if (lo < 0)
            lo = 0;
        if (lo <= ceiling) {
            out[2 * n] = tk;
            out[2 * n + 1] = lo;
            n++;
        }
    }
    *ceiling_out = ceiling;
    return n;
}

/* Insertion sort of (transition, delay) pairs by (delay, priority,
 * index); candidate lists are window-sized, typically < 16 entries. */
static void kn_sort(const kn_net *net, int32_t *out, int32_t n)
{
    int32_t k;
    for (k = 1; k < n; k++) {
        int32_t tc = out[2 * k], qd = out[2 * k + 1];
        int32_t pk = net->prio[tc];
        int32_t m = k - 1;
        while (m >= 0) {
            int32_t tm = out[2 * m], qm = out[2 * m + 1];
            int32_t pm = net->prio[tm];
            if (qm > qd || (qm == qd && (pm > pk || (pm == pk && tm > tc)))) {
                out[2 * m + 2] = tm;
                out[2 * m + 3] = qm;
                m--;
            } else {
                break;
            }
        }
        out[2 * m + 2] = tc;
        out[2 * m + 3] = qd;
    }
}

/* The whole candidate pipeline of one state: window, strict priority
 * filter, forced-immediate partial-order reduction, the delay-policy
 * expansion (mode 0 = earliest, 1 = extremes, 2 = full) against the
 * min-DUB ceiling and the (delay, priority, index) order.  An
 * unbounded ceiling collapses to earliest-only ordering, exactly like
 * repro.scheduler.core.order_and_expand.  `out` receives up to `cap`
 * (transition, delay) pairs; returns the count, or -needed when `cap`
 * is too small (the caller grows the buffer and retries). */
static int32_t kn_enumerate(const kn_net *net, const uint16_t *clk,
                            int32_t strict, int32_t partial_order,
                            int32_t mode, int32_t *out, int32_t cap,
                            int32_t *reduced)
{
    int32_t *cand = net->cand;
    int32_t ceiling, k, n, needed, m, q;

    *reduced = 0;
    n = kn_scan(net, clk, cand, &ceiling);
    if (n == 0)
        return 0;

    if (strict) {
        int32_t best = net->prio[cand[0]];
        int32_t m2 = 0;
        for (k = 1; k < n; k++)
            if (net->prio[cand[2 * k]] < best)
                best = net->prio[cand[2 * k]];
        for (k = 0; k < n; k++) {
            if (net->prio[cand[2 * k]] == best) {
                cand[2 * m2] = cand[2 * k];
                cand[2 * m2 + 1] = cand[2 * k + 1];
                m2++;
            }
        }
        n = m2;
    }

    if (partial_order && n > 1) {
        for (k = 0; k < n; k++) {
            int32_t tc = cand[2 * k];
            int32_t l, m2, ok = 1;
            if (cand[2 * k + 1] != 0 || !(net->flags[tc] & 4))
                continue; /* not zero-delay or not conflict-free */
            l = net->lft[tc];
            if (l < 0 || l - (int32_t)clk[tc] > 0)
                continue; /* not forced at this instant */
            for (m2 = net->pc_off[tc]; m2 < net->pc_off[tc + 1]; m2++) {
                if (clk[net->pc_t[m2]] != KN_DIS) {
                    ok = 0; /* an enabled transition consumes t's out */
                    break;
                }
            }
            if (ok) {
                /* the reduced pick still goes through the delay
                 * expansion below, like the Python pipeline */
                cand[0] = tc;
                cand[1] = 0;
                n = 1;
                *reduced = 1;
                break;
            }
        }
    }

    if (mode == 0 || ceiling == KN_INF_CEILING) {
        if (n > cap)
            return -n;
        memcpy(out, cand, (size_t)n * 2 * sizeof(int32_t));
        kn_sort(net, out, n);
        return n;
    }

    needed = 0;
    for (k = 0; k < n; k++) {
        int32_t lo = cand[2 * k + 1];
        needed += mode == 2 ? (ceiling - lo + 1) : (ceiling == lo ? 1 : 2);
    }
    if (needed > cap)
        return -needed;
    m = 0;
    for (k = 0; k < n; k++) {
        int32_t tc = cand[2 * k], lo = cand[2 * k + 1];
        if (mode == 2) {
            for (q = lo; q <= ceiling; q++) {
                out[2 * m] = tc;
                out[2 * m + 1] = q;
                m++;
            }
        } else {
            out[2 * m] = tc;
            out[2 * m + 1] = lo;
            m++;
            if (ceiling != lo) {
                out[2 * m] = tc;
                out[2 * m + 1] = ceiling;
                m++;
            }
        }
    }
    kn_sort(net, out, m);
    return m;
}

/* The earliest-mode candidate list, fully ordered; `out` holds 2T
 * words.  Returns the count. */
int32_t kn_candidates(const kn_net *net, const uint16_t *clk,
                      int32_t strict, int32_t partial_order,
                      int32_t *out, int32_t *reduced)
{
    return kn_enumerate(net, clk, strict, partial_order, 0, out,
                        net->T, reduced);
}

/* Raw firing window for the delay-enumeration modes: ceiling +
 * unfiltered (transition, lower) pairs in ascending index order.
 * `ceiling_out` is -1 when no enabled transition bounds the window. */
int32_t kn_window(const kn_net *net, const uint16_t *clk,
                  int32_t *out, int32_t *ceiling_out)
{
    int32_t ceiling;
    int32_t n = kn_scan(net, clk, out, &ceiling);
    *ceiling_out = (ceiling == KN_INF_CEILING) ? -1 : ceiling;
    return n;
}

/* ------------------------------------------------------------------
 * The search driver: SearchCore's depth-first loop, resumable.
 *
 * kn_search_run runs until one of the statuses below and saves where
 * it stopped, so the next call resumes exactly there.  Every counter
 * is SearchCore's, updated at the same points of the loop.
 * ------------------------------------------------------------------ */
#define KN_S_DONE 0     /* stack empty: space exhausted, no schedule */
#define KN_S_POLL 1     /* 1024-expansion poll; resume to continue */
#define KN_S_REORDER 2  /* top frame awaits a Python reorder */
#define KN_S_FEASIBLE 3 /* final marking reached; see kn_search_path */
#define KN_S_BUDGET 4   /* max_states reached */
#define KN_S_TOKENS 5   /* token overflow firing counters->fault */
#define KN_S_CLOCK 6    /* clock overflow firing counters->fault */
#define KN_S_NOMEM 7    /* an allocation failed */

#define KN_O_INTERMEDIATE 1
#define KN_O_STRICT 2
#define KN_O_PARTIAL_ORDER 4
#define KN_O_EXTREMES 8
#define KN_O_FULL 16
#define KN_O_REORDER 32
#define KN_O_TIMED 64
#define KN_O_LATEST 128
#define KN_O_LAXITY 256

#define KN_POLL_MASK 0x3FF
#define KN_TRIM_BYTES (1 << 20)

enum { KN_PH_ROOT, KN_PH_LOOP, KN_PH_STEP, KN_PH_OVER };

typedef struct {
    int64_t visited, generated, revisits, prunes, backtracks;
    int64_t reductions, depth;
    int64_t succ_ns, succ_calls, cand_ns, cand_calls;
    int64_t visited_bytes;
    int32_t pending; /* frame's candidates (REORDER), path length
                        (FEASIBLE) */
    int32_t fault;   /* transition whose firing overflowed */
} kn_counters;

typedef struct {
    int64_t now;    /* absolute time at this frame's state */
    uint32_t state; /* arena index */
    uint32_t off;   /* first candidate word in the pool */
    int32_t n, index;
    int32_t t, q;   /* the firing that produced this frame */
} kn_frame;

typedef struct kn_search {
    const kn_net *net;
    kn_counters *c;
    int32_t W, options, mode, phase;
    int64_t max_states;
    /* state arena: W words (marking then clocks) per visited state */
    uint16_t *arena;
    uint64_t *keys;
    size_t n_states, cap_states;
    /* open-addressing visited table: arena index + 1, 0 = empty */
    uint32_t *table;
    size_t table_cap;
    kn_frame *frames;
    size_t n_frames, cap_frames;
    /* candidate pairs of every open frame, stacked like the frames */
    int32_t *pool;
    size_t pool_len, pool_cap;
    uint16_t *child;
    int32_t pend_t, pend_q;
    int64_t pend_now;
} kn_search;

static int64_t kn_now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int kn_reserve(void **buf, size_t *cap, size_t need, size_t elem)
{
    size_t ncap = *cap ? *cap : 64;
    void *grown;
    if (need <= *cap)
        return 1;
    while (ncap < need)
        ncap *= 2;
    grown = PyMem_RawRealloc(*buf, ncap * elem);
    if (!grown)
        return 0;
    *buf = grown;
    *cap = ncap;
    return 1;
}

static void kn_account(kn_search *s)
{
    s->c->visited_bytes = (int64_t)(
        s->cap_states * ((size_t)s->W * sizeof(uint16_t) + sizeof(uint64_t))
        + s->table_cap * sizeof(uint32_t));
}

/* Tag a state: 1 when it was already visited, 0 when it was appended
 * to the arena and the table, -1 when an allocation failed. */
static int kn_visit(kn_search *s, const uint16_t *st, uint64_t key)
{
    size_t W = (size_t)s->W, mask = s->table_cap - 1;
    size_t i = (size_t)key & mask, idx;
    uint32_t e;

    while ((e = s->table[i]) != 0) {
        idx = e - 1;
        if (s->keys[idx] == key &&
            memcmp(s->arena + idx * W, st, W * sizeof(uint16_t)) == 0)
            return 1;
        i = (i + 1) & mask;
    }
    if (s->n_states >= 0xFFFFFFFEu)
        return -1; /* arena indices are 32-bit */
    if (s->n_states == s->cap_states) {
        size_t cap = s->cap_states ? 2 * s->cap_states : 64;
        uint16_t *arena;
        uint64_t *keys;
        arena = (uint16_t *)PyMem_RawRealloc(s->arena,
                                             cap * W * sizeof(uint16_t));
        if (!arena)
            return -1;
        s->arena = arena;
        keys = (uint64_t *)PyMem_RawRealloc(s->keys,
                                            cap * sizeof(uint64_t));
        if (!keys)
            return -1;
        s->keys = keys;
        s->cap_states = cap;
        kn_account(s);
    }
    if (2 * (s->n_states + 1) > s->table_cap) {
        size_t ncap = 2 * s->table_cap, k;
        uint32_t *grown = (uint32_t *)PyMem_RawCalloc(ncap,
                                                      sizeof(uint32_t));
        if (!grown)
            return -1;
        mask = ncap - 1;
        for (k = 0; k < s->n_states; k++) {
            size_t j = (size_t)s->keys[k] & mask;
            while (grown[j])
                j = (j + 1) & mask;
            grown[j] = (uint32_t)(k + 1);
        }
        PyMem_RawFree(s->table);
        s->table = grown;
        s->table_cap = ncap;
        kn_account(s);
        i = (size_t)key & mask;
        while (s->table[i])
            i = (i + 1) & mask;
    }
    idx = s->n_states++;
    memcpy(s->arena + idx * W, st, W * sizeof(uint16_t));
    s->keys[idx] = key;
    s->table[i] = (uint32_t)(idx + 1);
    return 0;
}

/* Laxity of candidate t for the min-laxity policy: LFT - clock of its
 * task's deadline timer, unbounded without an armed, bounded timer. */
static int64_t kn_laxity(const kn_net *net, const uint16_t *clk,
                         int32_t t)
{
    int32_t m = net->timer[t];
    if (m < 0 || clk[m] == KN_DIS || net->lft[m] < 0)
        return INT64_MAX;
    return (int64_t)net->lft[m] - clk[m];
}

/* The latest and min-laxity policies of repro.scheduler.policies on
 * n (transition, delay) pairs in place: latest reverses them,
 * min-laxity sorts them by (delay, laxity, index). */
static void kn_order(const kn_net *net, const uint16_t *clk,
                     int32_t options, int32_t *out, int32_t n)
{
    int32_t k, m;
    if (options & KN_O_LATEST) {
        for (k = 0, m = n - 1; k < m; k++, m--) {
            int32_t pair[2];
            memcpy(pair, out + 2 * k, sizeof pair);
            memcpy(out + 2 * k, out + 2 * m, sizeof pair);
            memcpy(out + 2 * m, pair, sizeof pair);
        }
        return;
    }
    for (k = 1; k < n; k++) {
        int32_t tc = out[2 * k], qd = out[2 * k + 1];
        int64_t lc = kn_laxity(net, clk, tc);
        for (m = k - 1; m >= 0; m--) {
            int32_t tm = out[2 * m], qm = out[2 * m + 1];
            int64_t lm = kn_laxity(net, clk, tm);
            if (!(qm > qd || (qm == qd && (lm > lc || (lm == lc && tm > tc)))))
                break;
            out[2 * m + 2] = tm;
            out[2 * m + 3] = qm;
        }
        out[2 * m + 2] = tc;
        out[2 * m + 3] = qd;
    }
}

/* Open a frame on arena state `state`: enumerate its candidates onto
 * the pool, in the order of a native policy when one is set.  Returns
 * the candidate count, -1 on allocation failure. */
static int32_t kn_push(kn_search *s, uint32_t state, int64_t now,
                       int32_t t, int32_t q)
{
    const kn_net *net = s->net;
    kn_counters *c = s->c;
    size_t need = 2 * (size_t)(net->T ? net->T : 1);
    int32_t n, reduced;
    int64_t t0 = 0;
    kn_frame *f;

    if (!kn_reserve((void **)&s->frames, &s->cap_frames,
                    s->n_frames + 1, sizeof(kn_frame)))
        return -1;
    if (s->options & KN_O_TIMED)
        t0 = kn_now_ns();
    for (;;) {
        const uint16_t *clk;
        if (!kn_reserve((void **)&s->pool, &s->pool_cap,
                        s->pool_len + need, sizeof(int32_t)))
            return -1;
        clk = s->arena + (size_t)state * s->W + net->P;
        n = kn_enumerate(net, clk, s->options & KN_O_STRICT,
                         s->options & KN_O_PARTIAL_ORDER, s->mode,
                         s->pool + s->pool_len,
                         (int32_t)((s->pool_cap - s->pool_len) / 2),
                         &reduced);
        if (n >= 0) {
            if (s->options & (KN_O_LATEST | KN_O_LAXITY))
                kn_order(net, clk, s->options, s->pool + s->pool_len, n);
            break;
        }
        need = 2 * (size_t)(-n);
    }
    if (s->options & KN_O_TIMED)
        c->cand_ns += kn_now_ns() - t0;
    c->cand_calls++;
    if (reduced)
        c->reductions++;
    f = &s->frames[s->n_frames++];
    f->now = now;
    f->state = state;
    f->off = (uint32_t)s->pool_len;
    f->n = n;
    f->index = 0;
    f->t = t;
    f->q = q;
    s->pool_len += 2 * (size_t)n;
    return n;
}

void kn_search_free(kn_search *s)
{
    if (s) {
        int large = s->cap_states * (size_t)s->W * sizeof(uint16_t)
                    >= KN_TRIM_BYTES;
        PyMem_RawFree(s->arena);
        PyMem_RawFree(s->keys);
        PyMem_RawFree(s->table);
        PyMem_RawFree(s->frames);
        PyMem_RawFree(s->pool);
        PyMem_RawFree(s->child);
        PyMem_RawFree(s);
#ifdef __GLIBC__
        /* glibc raises its mmap threshold after freeing a large mmapped
         * block, so the next search's arena lands on the heap and stays
         * resident once freed; hand those pages back */
        if (large)
            malloc_trim(0);
#else
        (void)large;
#endif
    }
}

/* A search rooted at (mark0, clk0) at absolute time now0.  The root
 * is tagged visited here; the caller has already checked it against
 * the deadline and final predicates.  `counters` stays owned by the
 * caller and is written until kn_search_free. */
kn_search *kn_search_new(const kn_net *net, const uint16_t *mark0,
                         const uint16_t *clk0, uint64_t key0,
                         int64_t now0, int32_t options,
                         int64_t max_states, kn_counters *counters)
{
    kn_search *s = (kn_search *)PyMem_RawCalloc(1, sizeof(kn_search));
    size_t W = (size_t)net->P + (size_t)net->T;
    if (!s)
        return NULL;
    memset(counters, 0, sizeof(kn_counters));
    s->net = net;
    s->c = counters;
    s->W = (int32_t)W;
    s->options = options;
    s->mode = (options & KN_O_FULL) ? 2 : (options & KN_O_EXTREMES) ? 1 : 0;
    s->phase = KN_PH_ROOT;
    s->max_states = max_states;
    s->pend_now = now0;
    s->table_cap = 1024;
    s->table = (uint32_t *)PyMem_RawCalloc(s->table_cap, sizeof(uint32_t));
    s->child = (uint16_t *)PyMem_RawMalloc((W ? W : 1) * sizeof(uint16_t));
    if (!s->table || !s->child) {
        kn_search_free(s);
        return NULL;
    }
    memcpy(s->child, mark0, (size_t)net->P * sizeof(uint16_t));
    memcpy(s->child + net->P, clk0, (size_t)net->T * sizeof(uint16_t));
    if (kn_visit(s, s->child, key0) != 0) {
        kn_search_free(s);
        return NULL;
    }
    counters->visited = 1;
    return s;
}

int32_t kn_search_run(kn_search *s)
{
    const kn_net *net = s->net;
    kn_counters *c = s->c;
    const uint8_t *flags = net->flags;
    size_t W = (size_t)s->W;
    int32_t P = net->P;
    int32_t intermediate = s->options & KN_O_INTERMEDIATE;
    int32_t reorder = s->options & KN_O_REORDER;
    int32_t timed = s->options & KN_O_TIMED;
    int32_t t = 0, q = 0, n, status, i;
    kn_frame *f;

    switch (s->phase) {
    case KN_PH_ROOT:
        n = kn_push(s, 0, s->pend_now, -1, 0);
        if (n < 0)
            goto nomem;
        s->phase = KN_PH_LOOP;
        if (reorder && n > 1) {
            c->pending = n;
            return KN_S_REORDER;
        }
        break;
    case KN_PH_LOOP:
        break;
    case KN_PH_STEP:
        f = &s->frames[s->n_frames - 1];
        t = s->pend_t;
        q = s->pend_q;
        s->phase = KN_PH_LOOP;
        goto step;
    default:
        return KN_S_DONE;
    }

    for (;;) {
        const uint16_t *parent;
        uint64_t h;
        int64_t now, t0 = 0;

        if (s->n_frames == 0) {
            s->phase = KN_PH_OVER;
            return KN_S_DONE;
        }
        f = &s->frames[s->n_frames - 1];
        if (f->index >= f->n) {
            s->pool_len = f->off;
            s->n_frames--;
            if (s->n_frames)
                c->backtracks++;
            continue;
        }
        t = s->pool[f->off + 2 * (size_t)f->index];
        q = s->pool[f->off + 2 * (size_t)f->index + 1];
        f->index++;
        c->generated++;
        if (!(c->generated & KN_POLL_MASK)) {
            c->depth = (int64_t)s->n_frames;
            s->pend_t = t;
            s->pend_q = q;
            s->phase = KN_PH_STEP;
            return KN_S_POLL;
        }
    step:
        parent = s->arena + (size_t)f->state * W;
        h = s->keys[f->state];
        memcpy(s->child, parent, W * sizeof(uint16_t));
        if (timed)
            t0 = kn_now_ns();
        status = kn_successor(net, parent, parent + P, s->child,
                              s->child + P, &h, t, q, intermediate);
        if (timed) {
            c->succ_ns += kn_now_ns() - t0;
            c->succ_calls++;
        }
        if (status) {
            c->fault = t;
            s->phase = KN_PH_OVER;
            return status == 1 ? KN_S_TOKENS : KN_S_CLOCK;
        }
        if (flags[t] & 8) {
            int missed = 0;
            for (i = 0; i < net->n_miss; i++) {
                if (s->child[net->miss_place[i]]) {
                    missed = 1;
                    break;
                }
            }
            if (missed) {
                c->prunes++;
                continue;
            }
        }
        status = kn_visit(s, s->child, h);
        if (status < 0)
            goto nomem;
        if (status) {
            c->revisits++;
            continue;
        }
        c->visited++;
        now = f->now + q;
        if (flags[t] & 16) {
            int final = 1;
            for (i = 0; i < net->n_final; i++) {
                if (s->child[net->final_place[i]] != net->final_req[i]) {
                    final = 0;
                    break;
                }
            }
            if (final) {
                s->pend_t = t;
                s->pend_q = q;
                s->pend_now = now;
                c->pending = (int32_t)s->n_frames;
                s->phase = KN_PH_OVER;
                return KN_S_FEASIBLE;
            }
        }
        if (c->visited >= s->max_states) {
            s->phase = KN_PH_OVER;
            return KN_S_BUDGET;
        }
        n = kn_push(s, (uint32_t)(s->n_states - 1), now, t, q);
        if (n < 0)
            goto nomem;
        if (reorder && n > 1) {
            c->pending = n;
            return KN_S_REORDER;
        }
    }

nomem:
    s->phase = KN_PH_OVER;
    return KN_S_NOMEM;
}

/* The candidate pairs of the frame awaiting a reorder (REORDER);
 * the caller permutes them in place before resuming. */
int32_t *kn_search_pending(kn_search *s)
{
    return s->pool + s->frames[s->n_frames - 1].off;
}

/* After FEASIBLE: the accepting path as counters->pending
 * (transition, delay, absolute time) triples in firing order. */
void kn_search_path(const kn_search *s, int64_t *out)
{
    size_t i, k = 0;
    for (i = 1; i < s->n_frames; i++) {
        out[k++] = s->frames[i].t;
        out[k++] = s->frames[i].q;
        out[k++] = s->frames[i].now;
    }
    out[k++] = s->pend_t;
    out[k++] = s->pend_q;
    out[k++] = s->pend_now;
}
"""


_CORE = NativeCore(
    label="kernel",
    module_name=_MODULE_NAME,
    build_dir="_kernelc_build",
    temp_prefix="ezrt-kernel",
    cdef=CDEF,
    source=SOURCE,
)
build = _CORE.build
native_module = _CORE.native_module
load = _CORE.load
available = _CORE.available


def __getattr__(name: str):
    # LOAD_ERROR is live state of the shared loader
    if name == "LOAD_ERROR":
        return _CORE.load_error
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":  # pragma: no cover - CI eager build
    print(build(verbose=True))
