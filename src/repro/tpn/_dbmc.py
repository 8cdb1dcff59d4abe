"""Optional compiled core of the packed DBM state-class engine.

This module owns the native half of :mod:`repro.tpn.dbm`: a small C
translation unit (embedded below as a string, so the sdist needs no
extra data files) compiled on demand through cffi's API mode into a
shared object cached next to this package.  It is the dense-time
sibling of :mod:`repro.tpn._kernelc` and shares its degradation
contract — the DBM engine asks :func:`load` for the compiled module
and falls back to its pure-Python core whenever the answer is
``None``:

* ``EZRT_PURE=1`` in the environment force-disables the compiled core
  (CI runs the whole test suite once in this mode);
* a missing cffi, a missing C compiler, an unwritable cache directory
  or any other build/import failure is swallowed after recording the
  exception on :data:`LOAD_ERROR` for diagnostics.

Three entry points carry the whole dense-time hot path:

* ``dc_fire`` — the firability column scan, the O(n²) incremental
  closure repair, the marking update, the enabledness rescan, the
  persistence projection (both reset policies) and the fused Zobrist
  hash, in one call;
* ``dc_candidates`` — per-variable firability scans, the deadline-miss
  and strict-priority filters, the dense forced-immediate
  partial-order reduction and the ``(lower, priority, index)``
  insertion sort, in one call;
* the search driver (``dc_search_*``) — the whole depth-first search
  of :class:`repro.scheduler.core.SearchCore` over state classes:
  frame stack, class arena, a visited table keyed on the fused
  Zobrist key and confirmed on the marking and DBM bytes, the
  deadline and final predicates, the two calls above, the ``latest``
  and ``min-laxity`` search policies and the state budget.  It
  returns to Python only at the 1024-expansion poll, when a new frame
  needs the seeded ``random`` policy, and at the end of the search
  (see ``docs/scheduling.md``, "The dense search driver").  Its memory
  comes from ``PyMem_RawMalloc``, so ``tracemalloc`` sees it, and the
  GIL stays released for the whole call.

Build caching: the shared object lands in ``_dbmc_build/<digest>/``
beside this file, keyed by a digest of the C source; the build, cache
and load logic is shared with the kernel core in
:mod:`repro.tpn._native`.

CI builds eagerly via ``python -m repro.tpn._dbmc``; see
``pyproject.toml``'s ``native`` extra for the cffi pin.
"""

from __future__ import annotations

from repro.tpn._native import PURE_ENV, NativeCore

_MODULE_NAME = "_ezrt_dbm"

# The foreign function surface, shared between ffi.cdef and the
# translation unit below.
CDEF = """
typedef struct dc_net dc_net;
dc_net *dc_net_new(int32_t num_places, int32_t num_transitions,
                   const int32_t *pre_off, const int32_t *pre_place,
                   const int32_t *pre_w,
                   const int32_t *delta_off, const int32_t *delta_place,
                   const int32_t *delta_d,
                   const int32_t *pc_off, const int32_t *pc_t,
                   const int32_t *eft, const int32_t *lft,
                   const int32_t *prio, const uint8_t *flags,
                   int32_t n_miss, const int32_t *miss_place,
                   int32_t n_final, const int32_t *final_place,
                   const int32_t *final_req, const int32_t *timer);
void dc_net_free(dc_net *net);
int32_t dc_fire(const dc_net *net, const uint16_t *old_mark,
                const int32_t *old_enabled, int32_t k,
                const int64_t *old_dbm, int32_t t,
                int32_t intermediate, uint16_t *mark,
                int32_t *out_enabled, int64_t *out_dbm,
                uint64_t *hash_io);
int32_t dc_candidates(const dc_net *net, const int32_t *enabled,
                      int32_t k, const int64_t *dbm, int32_t strict,
                      int32_t partial_order, int32_t *out,
                      int32_t *reduced);

typedef struct {
    int64_t visited, generated, revisits, prunes, backtracks;
    int64_t reductions, depth;
    int64_t succ_ns, succ_calls, cand_ns, cand_calls;
    int64_t visited_bytes;
    int32_t pending;
    int32_t fault;
} dc_counters;
typedef struct dc_search dc_search;
dc_search *dc_search_new(const dc_net *net, const uint16_t *mark0,
                         const int32_t *enabled0, int32_t k0,
                         const int64_t *dbm0, uint64_t mhash0,
                         uint64_t key0, int64_t now0, int32_t options,
                         int64_t max_states, dc_counters *counters);
int32_t dc_search_run(dc_search *s);
int32_t *dc_search_pending(dc_search *s);
void dc_search_path(const dc_search *s, int64_t *out);
void dc_search_free(dc_search *s);
"""

# The dense-time firing rule and candidate pipeline over the packed
# buffers.  Semantics are line-for-line the pure-Python core of
# repro.tpn.dbm.DbmEngine (which mirrors the tuple-based Floyd-
# Warshall specification of repro.tpn.stateclass); the two are locked
# together by the native-vs-pure differential suite in
# tests/test_dbm.py, and the driver is locked to SearchCore by
# tests/test_dbm_driver.py.  DC_INF (1 << 62) is the unbounded-bound
# sentinel; lft < 0 encodes an unbounded static LFT; flag bits:
# 2 = deadline-miss, 4 = structurally conflict-free, 8 = touches a
# deadline-miss place, 16 = touches a final-constrained place (bit 1
# is unused here, matching the kernel core's flag layout).
SOURCE = r"""
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#define DC_INF ((int64_t)1 << 62)

/* CPython's raw allocator domain: thread-safe without the GIL and
 * traced by tracemalloc.  Declared here because cffi may build against
 * the limited API, whose headers hide it before 3.13. */
void *PyMem_RawMalloc(size_t size);
void *PyMem_RawCalloc(size_t nelem, size_t elsize);
void *PyMem_RawRealloc(void *ptr, size_t new_size);
void PyMem_RawFree(void *ptr);

typedef struct dc_net {
    int32_t P, T;
    const int32_t *pre_off, *pre_place, *pre_w;
    const int32_t *delta_off, *delta_place, *delta_d;
    const int32_t *pc_off, *pc_t;
    const int32_t *eft, *lft, *prio;
    const uint8_t *flags;
    int32_t n_miss, n_final;
    const int32_t *miss_place, *final_place, *final_req;
    const int32_t *timer; /* deadline timer per transition, -1 = none */
    int64_t *closed;   /* (T+1)^2: repaired-closure scratch */
    int64_t *col;      /* T+1: fired transition's column */
    int32_t *inter;    /* P: intermediate-marking reference */
    int32_t *old_var;  /* T: transition -> old DBM variable (0=none) */
    int32_t *pers;     /* T+1: new variable -> old variable (0=fresh) */
    int32_t *new_vars; /* T: newly enabled variable list */
    uint8_t *mask;     /* T: enabled-membership scratch */
} dc_net;

void dc_net_free(dc_net *net);

dc_net *dc_net_new(int32_t num_places, int32_t num_transitions,
                   const int32_t *pre_off, const int32_t *pre_place,
                   const int32_t *pre_w,
                   const int32_t *delta_off, const int32_t *delta_place,
                   const int32_t *delta_d,
                   const int32_t *pc_off, const int32_t *pc_t,
                   const int32_t *eft, const int32_t *lft,
                   const int32_t *prio, const uint8_t *flags,
                   int32_t n_miss, const int32_t *miss_place,
                   int32_t n_final, const int32_t *final_place,
                   const int32_t *final_req, const int32_t *timer)
{
    size_t size = (size_t)num_transitions + 1;
    dc_net *net = (dc_net *)calloc(1, sizeof(dc_net));
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
    net->closed = (int64_t *)malloc(size * size * sizeof(int64_t));
    net->col = (int64_t *)malloc(size * sizeof(int64_t));
    net->inter = (int32_t *)malloc(
        (num_places ? (size_t)num_places : 1) * sizeof(int32_t));
    net->old_var = (int32_t *)calloc(size, sizeof(int32_t));
    net->pers = (int32_t *)malloc(size * sizeof(int32_t));
    net->new_vars = (int32_t *)malloc(size * sizeof(int32_t));
    net->mask = (uint8_t *)calloc(size, sizeof(uint8_t));
    if (!net->closed || !net->col || !net->inter || !net->old_var ||
        !net->pers || !net->new_vars || !net->mask) {
        dc_net_free(net);
        return NULL;
    }
    return net;
}

void dc_net_free(dc_net *net)
{
    if (net) {
        free(net->closed);
        free(net->col);
        free(net->inter);
        free(net->old_var);
        free(net->pers);
        free(net->new_vars);
        free(net->mask);
        free(net);
    }
}

/* splitmix64 finalizer — identical to repro.tpn.kernel._mix. */
static uint64_t dc_mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Zobrist word of place p holding v tokens — identical to the kernel
 * engine's kn_zm (kind 1), so the marking part of the class key is
 * maintained incrementally across firings on both sides. */
static uint64_t dc_zm(int32_t p, uint32_t v)
{
    return dc_mix(((uint64_t)1 << 62) ^ ((uint64_t)p << 20) ^ v);
}

/* Zobrist word of bound-matrix cell (i, j) holding bound b: a double
 * mix folds the full signed 64-bit bound in (the (uint64_t) cast is
 * the two's-complement image Python's `b & MASK64` computes). */
static uint64_t dc_zd(int32_t i, int32_t j, int64_t b)
{
    uint64_t ij = ((uint64_t)(uint32_t)i << 11) |
                  (uint64_t)(uint32_t)j;
    return dc_mix(dc_mix(((uint64_t)3 << 62) ^ ij) ^ (uint64_t)b);
}

/* The dense-time firing rule: firability column scan, incremental
 * closure repair, marking delta, enabledness rescan, persistence
 * projection and the fused hash — one call per successor class.
 *
 * `mark` arrives as a copy of `old_mark` and is mutated in place;
 * `hash_io[0]` carries the marking hash in and out (maintained
 * incrementally), `hash_io[1]` receives the fused bound-matrix hash.
 * Returns the new enabled count (>= 0), -1 when `t` is not enabled
 * or not firable, -2 on token overflow (> 0xFFFF in a place). */
int32_t dc_fire(const dc_net *net, const uint16_t *old_mark,
                const int32_t *old_enabled, int32_t k,
                const int64_t *old_dbm, int32_t t,
                int32_t intermediate, uint16_t *mark,
                int32_t *out_enabled, int64_t *out_dbm,
                uint64_t *hash_io)
{
    int32_t size = k + 1;
    int32_t var_t = 0, i, j, u, k2 = 0, new_size, n_new = 0;
    int64_t *closed = net->closed;
    int64_t *col_t = net->col;
    int64_t *row_t, *fresh;
    uint64_t h;

    for (i = 0; i < k; i++) {
        if (old_enabled[i] == t) {
            var_t = i + 1;
            break;
        }
    }
    if (!var_t)
        return -1;
    /* firability: adding theta_t <= theta_u for every enabled u keeps
     * the canonical system satisfiable iff no column entry into var_t
     * is negative */
    for (u = 1; u < size; u++) {
        if (old_dbm[u * size + var_t] < 0)
            return -1;
    }
    for (i = 0; i < size; i++)
        col_t[i] = old_dbm[i * size + var_t];

    /* incremental closure repair: the new shortest row out of var_t
     * is the column-wise minimum over every enabled row, and any
     * other entry improves only by routing through var_t once */
    row_t = closed + (size_t)var_t * size;
    memcpy(row_t, old_dbm + (size_t)var_t * size,
           (size_t)size * sizeof(int64_t));
    for (u = 1; u < size; u++) {
        const int64_t *row_u;
        if (u == var_t)
            continue;
        row_u = old_dbm + (size_t)u * size;
        for (j = 0; j < size; j++) {
            if (row_u[j] < row_t[j])
                row_t[j] = row_u[j];
        }
    }
    for (i = 0; i < size; i++) {
        int64_t *row_i;
        int64_t d_it;
        if (i == var_t)
            continue;
        row_i = closed + (size_t)i * size;
        memcpy(row_i, old_dbm + (size_t)i * size,
               (size_t)size * sizeof(int64_t));
        d_it = col_t[i];
        if (d_it != DC_INF) {
            for (j = 0; j < size; j++) {
                int64_t d_tj = row_t[j], cand;
                if (d_tj == DC_INF)
                    continue;
                cand = d_it + d_tj;
                if (cand < row_i[j])
                    row_i[j] = cand;
            }
        }
    }

    /* new marking, with the marking hash maintained incrementally */
    h = hash_io[0];
    for (i = net->delta_off[t]; i < net->delta_off[t + 1]; i++) {
        int32_t p = net->delta_place[i];
        int32_t nv = (int32_t)mark[p] + net->delta_d[i];
        if (nv < 0 || nv > 0xFFFF)
            return -2;
        h ^= dc_zm(p, mark[p]) ^ dc_zm(p, (uint32_t)nv);
        mark[p] = (uint16_t)nv;
    }
    hash_io[0] = h;

    /* old-variable map + the intermediate-marking reference */
    memset(net->old_var, 0, (size_t)net->T * sizeof(int32_t));
    for (i = 0; i < k; i++)
        net->old_var[old_enabled[i]] = i + 1;
    if (intermediate) {
        for (i = 0; i < net->P; i++)
            net->inter[i] = (int32_t)old_mark[i];
        for (i = net->pre_off[t]; i < net->pre_off[t + 1]; i++)
            net->inter[net->pre_place[i]] -= net->pre_w[i];
    }

    /* enabledness rescan over the whole transition set */
    for (j = 0; j < net->T; j++) {
        int ok = 1;
        for (i = net->pre_off[j]; i < net->pre_off[j + 1]; i++) {
            if (mark[net->pre_place[i]] < net->pre_w[i]) {
                ok = 0;
                break;
            }
        }
        if (ok)
            out_enabled[k2++] = j;
    }

    /* the successor matrix, written down already closed (the
     * persistent block is a projection of the closed matrix; a newly
     * enabled variable's shortest paths all route through origin) */
    new_size = k2 + 1;
    fresh = out_dbm;
    for (i = 0; i < new_size * new_size; i++)
        fresh[i] = DC_INF;
    for (i = 0; i < new_size; i++)
        fresh[i * new_size + i] = 0;
    for (i = 1; i < new_size; i++) {
        int32_t tn = out_enabled[i - 1];
        int32_t ov = (tn == t) ? 0 : net->old_var[tn];
        if (ov && intermediate) {
            for (j = net->pre_off[tn]; j < net->pre_off[tn + 1];
                 j++) {
                if (net->inter[net->pre_place[j]] < net->pre_w[j]) {
                    ov = 0;
                    break;
                }
            }
        }
        net->pers[i] = ov;
        if (ov) {
            /* theta'_u = theta_u - theta_t: bounds against the new
             * origin */
            fresh[i * new_size] = closed[(size_t)ov * size + var_t];
            fresh[i] = closed[(size_t)var_t * size + ov];
        } else {
            int32_t l = net->lft[tn];
            fresh[i * new_size] = (l < 0) ? DC_INF : (int64_t)l;
            fresh[i] = -(int64_t)net->eft[tn];
            net->new_vars[n_new++] = i;
        }
    }
    /* pairwise differences among persistent transitions */
    for (i = 1; i < new_size; i++) {
        int32_t oi = net->pers[i];
        const int64_t *row_old;
        if (!oi)
            continue;
        row_old = closed + (size_t)oi * size;
        for (j = 1; j < new_size; j++) {
            int32_t oj = net->pers[j];
            if (!oj || i == j)
                continue;
            fresh[i * new_size + j] = row_old[oj];
        }
    }
    /* cross entries of newly enabled variables: via the origin */
    for (u = 0; u < n_new; u++) {
        int32_t nv = net->new_vars[u];
        int64_t up = fresh[nv * new_size], down = fresh[nv];
        for (j = 1; j < new_size; j++) {
            int64_t d_0j, d_j0, cand;
            if (j == nv)
                continue;
            d_0j = fresh[j];
            if (up != DC_INF && d_0j != DC_INF) {
                cand = up + d_0j;
                if (cand < fresh[nv * new_size + j])
                    fresh[nv * new_size + j] = cand;
            }
            d_j0 = fresh[j * new_size];
            if (d_j0 != DC_INF) {
                cand = d_j0 + down;
                if (cand < fresh[j * new_size + nv])
                    fresh[j * new_size + nv] = cand;
            }
        }
    }
    /* fused bound-matrix hash */
    {
        uint64_t dh = 0;
        int32_t idx = 0;
        for (i = 0; i < new_size; i++) {
            for (j = 0; j < new_size; j++, idx++)
                dh ^= dc_zd(i, j, fresh[idx]);
        }
        hash_io[1] = dh;
    }
    return k2;
}

/* The full dense candidate pipeline: per-variable firability column
 * scans, deadline-miss filter, optional strict priority filter,
 * optional dense forced-immediate partial-order reduction and the
 * (lower, priority, index) insertion sort.  `out` receives
 * (transition, lower) pairs; returns the count. */
int32_t dc_candidates(const dc_net *net, const int32_t *enabled,
                      int32_t k, const int64_t *dbm, int32_t strict,
                      int32_t partial_order, int32_t *out,
                      int32_t *reduced)
{
    int32_t size = k + 1;
    int32_t n = 0, i, u, m;

    *reduced = 0;
    for (i = 1; i < size; i++) {
        int32_t tk = enabled[i - 1];
        int ok = 1;
        if (net->flags[tk] & 2)
            continue; /* deadline-miss transition */
        for (u = 1; u < size; u++) {
            if (dbm[u * size + i] < 0) {
                ok = 0;
                break;
            }
        }
        if (ok) {
            out[2 * n] = tk;
            out[2 * n + 1] = (int32_t)(-dbm[i]);
            n++;
        }
    }
    if (n == 0)
        return 0;

    if (strict) {
        int32_t best = net->prio[out[0]];
        int32_t m2 = 0;
        for (m = 1; m < n; m++)
            if (net->prio[out[2 * m]] < best)
                best = net->prio[out[2 * m]];
        for (m = 0; m < n; m++) {
            if (net->prio[out[2 * m]] == best) {
                out[2 * m2] = out[2 * m];
                out[2 * m2 + 1] = out[2 * m + 1];
                m2++;
            }
        }
        n = m2;
    }

    if (partial_order && n > 1) {
        for (i = 0; i < k; i++)
            net->mask[enabled[i]] = 1;
        for (m = 0; m < n; m++) {
            int32_t tc = out[2 * m];
            int32_t var = 0, m2, ok = 1;
            if (out[2 * m + 1] != 0 || !(net->flags[tc] & 4))
                continue; /* not zero-lower or not conflict-free */
            for (i = 0; i < k; i++) {
                if (enabled[i] == tc) {
                    var = i + 1;
                    break;
                }
            }
            if (dbm[var * size] != 0)
                continue; /* not forced at this instant */
            for (m2 = net->pc_off[tc]; m2 < net->pc_off[tc + 1];
                 m2++) {
                if (net->mask[net->pc_t[m2]]) {
                    ok = 0; /* an enabled transition consumes t's out */
                    break;
                }
            }
            if (ok) {
                for (i = 0; i < k; i++)
                    net->mask[enabled[i]] = 0;
                out[0] = tc;
                out[1] = 0;
                *reduced = 1;
                return 1;
            }
        }
        for (i = 0; i < k; i++)
            net->mask[enabled[i]] = 0;
    }

    if (n > 1) {
        /* insertion sort by (lower, priority, index); candidate
         * lists are window-sized, typically < 16 entries */
        for (m = 1; m < n; m++) {
            int32_t tc = out[2 * m], lo = out[2 * m + 1];
            int32_t pk = net->prio[tc];
            int32_t m2 = m - 1;
            while (m2 >= 0) {
                int32_t tm = out[2 * m2], lm = out[2 * m2 + 1];
                int32_t pm = net->prio[tm];
                if (lm > lo ||
                    (lm == lo &&
                     (pm > pk || (pm == pk && tm > tc)))) {
                    out[2 * m2 + 2] = tm;
                    out[2 * m2 + 3] = lm;
                    m2--;
                } else {
                    break;
                }
            }
            out[2 * m2 + 2] = tc;
            out[2 * m2 + 3] = lo;
        }
    }
    return n;
}

/* ------------------------------------------------------------------
 * The search driver: SearchCore's depth-first loop over state
 * classes, resumable.
 *
 * dc_search_run runs until one of the statuses below and saves where
 * it stopped, so the next call resumes exactly there.  Every counter
 * is SearchCore's, updated at the same points of the loop.  Statuses
 * and option bits share their values with the kernel driver's, so one
 * Python handle serves both.
 * ------------------------------------------------------------------ */
#define DC_S_DONE 0     /* stack empty: space exhausted, no schedule */
#define DC_S_POLL 1     /* 1024-expansion poll; resume to continue */
#define DC_S_REORDER 2  /* top frame awaits a Python reorder */
#define DC_S_FEASIBLE 3 /* final marking reached; see dc_search_path */
#define DC_S_BUDGET 4   /* max_states reached */
#define DC_S_TOKENS 5   /* token overflow firing counters->fault */
#define DC_S_NOMEM 7    /* an allocation failed */

#define DC_O_INTERMEDIATE 1
#define DC_O_STRICT 2
#define DC_O_PARTIAL_ORDER 4
#define DC_O_REORDER 32
#define DC_O_TIMED 64
#define DC_O_LATEST 128
#define DC_O_LAXITY 256

#define DC_POLL_MASK 0x3FF
#define DC_TRIM_BYTES (1 << 20)

enum { DC_PH_ROOT, DC_PH_LOOP, DC_PH_STEP, DC_PH_OVER };

typedef struct {
    int64_t visited, generated, revisits, prunes, backtracks;
    int64_t reductions, depth;
    int64_t succ_ns, succ_calls, cand_ns, cand_calls;
    int64_t visited_bytes;
    int32_t pending; /* frame's candidates (REORDER), path length
                        (FEASIBLE) */
    int32_t fault;   /* transition whose firing overflowed */
} dc_counters;

/* A visited class: its record, plus its bytes in the arena at `off`:
 * the (k+1)^2 closed bounds, the k enabled transitions, the marking,
 * padded to 8 bytes. */
typedef struct {
    size_t off;
    uint64_t key;   /* fused Zobrist key (marking ^ bound matrix) */
    uint64_t mhash; /* marking part, carried into dc_fire */
    int32_t k;      /* enabled count */
} dc_class;

typedef struct {
    int64_t now;    /* absolute time at this frame's class */
    uint32_t state; /* class index */
    int32_t n, index;
    int32_t t, q;   /* the firing that produced this frame */
    size_t off;     /* first candidate word in the pool */
} dc_frame;

typedef struct dc_search {
    const dc_net *net;
    dc_counters *c;
    int32_t options, phase;
    int64_t max_states;
    /* class arena (bytes) and the per-class records */
    unsigned char *arena;
    size_t arena_len, arena_cap;
    dc_class *classes;
    size_t n_states, cap_states;
    /* open-addressing visited table: class index + 1, 0 = empty */
    uint32_t *table;
    size_t table_cap;
    dc_frame *frames;
    size_t n_frames, cap_frames;
    /* candidate pairs of every open frame, stacked like the frames */
    int32_t *pool;
    size_t pool_len, pool_cap;
    /* the successor under construction */
    uint16_t *cmark;
    int32_t *cenb;
    int64_t *cdbm;
    int32_t pend_t, pend_q;
    int64_t pend_now;
} dc_search;

static int64_t dc_now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int dc_reserve(void **buf, size_t *cap, size_t need, size_t elem)
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

static void dc_account(dc_search *s)
{
    s->c->visited_bytes = (int64_t)(
        s->arena_cap + s->cap_states * sizeof(dc_class)
        + s->table_cap * sizeof(uint32_t));
}

static size_t dc_class_bytes(const dc_net *net, int32_t k)
{
    size_t size = (size_t)k + 1;
    size_t bytes = size * size * sizeof(int64_t)
                   + (size_t)k * sizeof(int32_t)
                   + (size_t)net->P * sizeof(uint16_t);
    return (bytes + 7) & ~(size_t)7;
}

static int64_t *dc_dbm_of(const dc_search *s, const dc_class *cls)
{
    return (int64_t *)(s->arena + cls->off);
}

static int32_t *dc_enabled_of(const dc_search *s, const dc_class *cls)
{
    size_t size = (size_t)cls->k + 1;
    return (int32_t *)(s->arena + cls->off + size * size * sizeof(int64_t));
}

static uint16_t *dc_mark_of(const dc_search *s, const dc_class *cls)
{
    return (uint16_t *)(dc_enabled_of(s, cls) + cls->k);
}

/* Tag the class in the successor buffers (cmark, cenb, cdbm, k
 * enabled): 1 when it was already visited, 0 when it was appended to
 * the arena and the table, -1 when an allocation failed.  Equal
 * classes have equal keys; a key match is confirmed on the marking
 * and bound-matrix bytes (the enabled list follows from the
 * marking). */
static int dc_visit(dc_search *s, uint64_t key, uint64_t mhash, int32_t k)
{
    const dc_net *net = s->net;
    size_t mask = s->table_cap - 1;
    size_t i = (size_t)key & mask, idx, size = (size_t)k + 1, bytes;
    size_t dbm_bytes = size * size * sizeof(int64_t);
    size_t mark_bytes = (size_t)net->P * sizeof(uint16_t);
    uint32_t e;
    dc_class *cls;
    unsigned char *at;

    while ((e = s->table[i]) != 0) {
        cls = &s->classes[e - 1];
        if (cls->key == key && cls->k == k &&
            memcmp(dc_mark_of(s, cls), s->cmark, mark_bytes) == 0 &&
            memcmp(dc_dbm_of(s, cls), s->cdbm, dbm_bytes) == 0)
            return 1;
        i = (i + 1) & mask;
    }
    if (s->n_states >= 0xFFFFFFFEu)
        return -1; /* class indices are 32-bit */
    bytes = dc_class_bytes(net, k);
    if (s->n_states == s->cap_states) {
        if (!dc_reserve((void **)&s->classes, &s->cap_states,
                        s->n_states + 1, sizeof(dc_class)))
            return -1;
        dc_account(s);
    }
    if (s->arena_len + bytes > s->arena_cap) {
        if (!dc_reserve((void **)&s->arena, &s->arena_cap,
                        s->arena_len + bytes, 1))
            return -1;
        dc_account(s);
    }
    if (2 * (s->n_states + 1) > s->table_cap) {
        size_t ncap = 2 * s->table_cap, j;
        uint32_t *grown = (uint32_t *)PyMem_RawCalloc(ncap,
                                                      sizeof(uint32_t));
        if (!grown)
            return -1;
        mask = ncap - 1;
        for (j = 0; j < s->n_states; j++) {
            size_t slot = (size_t)s->classes[j].key & mask;
            while (grown[slot])
                slot = (slot + 1) & mask;
            grown[slot] = (uint32_t)(j + 1);
        }
        PyMem_RawFree(s->table);
        s->table = grown;
        s->table_cap = ncap;
        dc_account(s);
        i = (size_t)key & mask;
        while (s->table[i])
            i = (i + 1) & mask;
    }
    idx = s->n_states++;
    cls = &s->classes[idx];
    cls->off = s->arena_len;
    cls->key = key;
    cls->mhash = mhash;
    cls->k = k;
    s->arena_len += bytes;
    at = s->arena + cls->off;
    memcpy(at, s->cdbm, dbm_bytes);
    memcpy(at + dbm_bytes, s->cenb, (size_t)k * sizeof(int32_t));
    memcpy(at + dbm_bytes + (size_t)k * sizeof(int32_t), s->cmark,
           mark_bytes);
    s->table[i] = (uint32_t)(idx + 1);
    return 0;
}

/* Laxity of candidate t for the min-laxity policy: LFT minus the
 * surrogate clock of its task's deadline timer, eft + dbm[0][var]
 * clamped at 0 (repro.scheduler.core.StateClassAdapter.clocks_view);
 * unbounded without an enabled, bounded timer. */
static int64_t dc_laxity(const dc_net *net, const int32_t *enabled,
                         int32_t k, const int64_t *dbm, int32_t t)
{
    int32_t m = net->timer[t], i;
    if (m < 0 || net->lft[m] < 0)
        return INT64_MAX;
    for (i = 0; i < k; i++) {
        if (enabled[i] == m) {
            int64_t clock = (int64_t)net->eft[m] + dbm[i + 1];
            if (clock < 0)
                clock = 0;
            return (int64_t)net->lft[m] - clock;
        }
    }
    return INT64_MAX;
}

/* The latest and min-laxity policies of repro.scheduler.policies on
 * n (transition, lower) pairs in place: latest reverses them,
 * min-laxity sorts them by (lower, laxity, index). */
static void dc_order(const dc_net *net, const int32_t *enabled,
                     int32_t k, const int64_t *dbm, int32_t options,
                     int32_t *out, int32_t n)
{
    int32_t a, b;
    if (options & DC_O_LATEST) {
        for (a = 0, b = n - 1; a < b; a++, b--) {
            int32_t pair[2];
            memcpy(pair, out + 2 * a, sizeof pair);
            memcpy(out + 2 * a, out + 2 * b, sizeof pair);
            memcpy(out + 2 * b, pair, sizeof pair);
        }
        return;
    }
    for (a = 1; a < n; a++) {
        int32_t tc = out[2 * a], qc = out[2 * a + 1];
        int64_t lc = dc_laxity(net, enabled, k, dbm, tc);
        for (b = a - 1; b >= 0; b--) {
            int32_t tb = out[2 * b], qb = out[2 * b + 1];
            int64_t lb = dc_laxity(net, enabled, k, dbm, tb);
            if (!(qb > qc || (qb == qc && (lb > lc || (lb == lc && tb > tc)))))
                break;
            out[2 * b + 2] = tb;
            out[2 * b + 3] = qb;
        }
        out[2 * b + 2] = tc;
        out[2 * b + 3] = qc;
    }
}

/* Open a frame on class `state`: enumerate its candidates onto the
 * pool, in the order of a native policy when one is set.  Returns the
 * candidate count, -1 on allocation failure. */
static int32_t dc_push(dc_search *s, uint32_t state, int64_t now,
                       int32_t t, int32_t q)
{
    const dc_net *net = s->net;
    dc_counters *c = s->c;
    const dc_class *cls;
    const int32_t *enabled;
    const int64_t *dbm;
    int32_t n, reduced;
    int64_t t0 = 0;
    dc_frame *f;

    if (!dc_reserve((void **)&s->frames, &s->cap_frames,
                    s->n_frames + 1, sizeof(dc_frame)))
        return -1;
    if (!dc_reserve((void **)&s->pool, &s->pool_cap,
                    s->pool_len + 2 * (size_t)(net->T ? net->T : 1),
                    sizeof(int32_t)))
        return -1;
    if (s->options & DC_O_TIMED)
        t0 = dc_now_ns();
    cls = &s->classes[state];
    enabled = dc_enabled_of(s, cls);
    dbm = dc_dbm_of(s, cls);
    n = dc_candidates(net, enabled, cls->k, dbm,
                      s->options & DC_O_STRICT,
                      s->options & DC_O_PARTIAL_ORDER,
                      s->pool + s->pool_len, &reduced);
    if (s->options & (DC_O_LATEST | DC_O_LAXITY))
        dc_order(net, enabled, cls->k, dbm, s->options,
                 s->pool + s->pool_len, n);
    if (s->options & DC_O_TIMED)
        c->cand_ns += dc_now_ns() - t0;
    c->cand_calls++;
    if (reduced)
        c->reductions++;
    f = &s->frames[s->n_frames++];
    f->now = now;
    f->state = state;
    f->off = s->pool_len;
    f->n = n;
    f->index = 0;
    f->t = t;
    f->q = q;
    s->pool_len += 2 * (size_t)n;
    return n;
}

void dc_search_free(dc_search *s)
{
    if (s) {
        int large = s->arena_cap >= DC_TRIM_BYTES;
        PyMem_RawFree(s->arena);
        PyMem_RawFree(s->classes);
        PyMem_RawFree(s->table);
        PyMem_RawFree(s->frames);
        PyMem_RawFree(s->pool);
        PyMem_RawFree(s->cmark);
        PyMem_RawFree(s->cenb);
        PyMem_RawFree(s->cdbm);
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

/* A search rooted at class (mark0, enabled0, dbm0) at absolute time
 * now0.  The root is tagged visited here; the caller has already
 * checked it against the deadline and final predicates.  `counters`
 * stays owned by the caller and is written until dc_search_free. */
dc_search *dc_search_new(const dc_net *net, const uint16_t *mark0,
                         const int32_t *enabled0, int32_t k0,
                         const int64_t *dbm0, uint64_t mhash0,
                         uint64_t key0, int64_t now0, int32_t options,
                         int64_t max_states, dc_counters *counters)
{
    dc_search *s = (dc_search *)PyMem_RawCalloc(1, sizeof(dc_search));
    size_t size = (size_t)net->T + 1, root = (size_t)k0 + 1;
    if (!s)
        return NULL;
    memset(counters, 0, sizeof(dc_counters));
    s->net = net;
    s->c = counters;
    s->options = options;
    s->phase = DC_PH_ROOT;
    s->max_states = max_states;
    s->pend_now = now0;
    s->table_cap = 1024;
    s->table = (uint32_t *)PyMem_RawCalloc(s->table_cap, sizeof(uint32_t));
    s->cmark = (uint16_t *)PyMem_RawMalloc(
        (net->P ? (size_t)net->P : 1) * sizeof(uint16_t));
    s->cenb = (int32_t *)PyMem_RawMalloc(size * sizeof(int32_t));
    s->cdbm = (int64_t *)PyMem_RawMalloc(size * size * sizeof(int64_t));
    if (!s->table || !s->cmark || !s->cenb || !s->cdbm) {
        dc_search_free(s);
        return NULL;
    }
    memcpy(s->cmark, mark0, (size_t)net->P * sizeof(uint16_t));
    memcpy(s->cenb, enabled0, (size_t)k0 * sizeof(int32_t));
    memcpy(s->cdbm, dbm0, root * root * sizeof(int64_t));
    if (dc_visit(s, key0, mhash0, k0) != 0) {
        dc_search_free(s);
        return NULL;
    }
    counters->visited = 1;
    return s;
}

int32_t dc_search_run(dc_search *s)
{
    const dc_net *net = s->net;
    dc_counters *c = s->c;
    const uint8_t *flags = net->flags;
    int32_t intermediate = s->options & DC_O_INTERMEDIATE;
    int32_t reorder = s->options & DC_O_REORDER;
    int32_t timed = s->options & DC_O_TIMED;
    int32_t t = 0, q = 0, n, k, status, i;
    dc_frame *f;

    switch (s->phase) {
    case DC_PH_ROOT:
        n = dc_push(s, 0, s->pend_now, -1, 0);
        if (n < 0)
            goto nomem;
        s->phase = DC_PH_LOOP;
        if (reorder && n > 1) {
            c->pending = n;
            return DC_S_REORDER;
        }
        break;
    case DC_PH_LOOP:
        break;
    case DC_PH_STEP:
        f = &s->frames[s->n_frames - 1];
        t = s->pend_t;
        q = s->pend_q;
        s->phase = DC_PH_LOOP;
        goto step;
    default:
        return DC_S_DONE;
    }

    for (;;) {
        const dc_class *parent;
        uint64_t hio[2];
        int64_t now, t0 = 0;

        if (s->n_frames == 0) {
            s->phase = DC_PH_OVER;
            return DC_S_DONE;
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
        if (!(c->generated & DC_POLL_MASK)) {
            c->depth = (int64_t)s->n_frames;
            s->pend_t = t;
            s->pend_q = q;
            s->phase = DC_PH_STEP;
            return DC_S_POLL;
        }
    step:
        parent = &s->classes[f->state];
        memcpy(s->cmark, dc_mark_of(s, parent),
               (size_t)net->P * sizeof(uint16_t));
        hio[0] = parent->mhash;
        if (timed)
            t0 = dc_now_ns();
        k = dc_fire(net, dc_mark_of(s, parent), dc_enabled_of(s, parent),
                    parent->k, dc_dbm_of(s, parent), t, intermediate,
                    s->cmark, s->cenb, s->cdbm, hio);
        if (timed) {
            c->succ_ns += dc_now_ns() - t0;
            c->succ_calls++;
        }
        if (k == -2) {
            c->fault = t;
            s->phase = DC_PH_OVER;
            return DC_S_TOKENS;
        }
        if (k < 0) {
            /* not firable: SearchCore prunes a None successor */
            c->prunes++;
            continue;
        }
        if (flags[t] & 8) {
            int missed = 0;
            for (i = 0; i < net->n_miss; i++) {
                if (s->cmark[net->miss_place[i]]) {
                    missed = 1;
                    break;
                }
            }
            if (missed) {
                c->prunes++;
                continue;
            }
        }
        status = dc_visit(s, hio[0] ^ hio[1], hio[0], k);
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
                if (s->cmark[net->final_place[i]] != net->final_req[i]) {
                    final = 0;
                    break;
                }
            }
            if (final) {
                s->pend_t = t;
                s->pend_q = q;
                s->pend_now = now;
                c->pending = (int32_t)s->n_frames;
                s->phase = DC_PH_OVER;
                return DC_S_FEASIBLE;
            }
        }
        if (c->visited >= s->max_states) {
            s->phase = DC_PH_OVER;
            return DC_S_BUDGET;
        }
        n = dc_push(s, (uint32_t)(s->n_states - 1), now, t, q);
        if (n < 0)
            goto nomem;
        if (reorder && n > 1) {
            c->pending = n;
            return DC_S_REORDER;
        }
    }

nomem:
    s->phase = DC_PH_OVER;
    return DC_S_NOMEM;
}

/* The candidate pairs of the frame awaiting a reorder (REORDER);
 * the caller permutes them in place before resuming. */
int32_t *dc_search_pending(dc_search *s)
{
    return s->pool + s->frames[s->n_frames - 1].off;
}

/* After FEASIBLE: the accepting path as counters->pending
 * (transition, lower bound, absolute time) triples in firing order. */
void dc_search_path(const dc_search *s, int64_t *out)
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
    label="DBM",
    module_name=_MODULE_NAME,
    build_dir="_dbmc_build",
    temp_prefix="ezrt-dbm",
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
