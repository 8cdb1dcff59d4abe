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

Two entry points carry the whole dense-time hot path:

* ``dc_fire`` — the firability column scan, the O(n²) incremental
  closure repair, the marking update, the enabledness rescan, the
  persistence projection (both reset policies) and the fused Zobrist
  hash, in one call;
* ``dc_candidates`` — per-variable firability scans, the deadline-miss
  and strict-priority filters, the dense forced-immediate
  partial-order reduction and the ``(lower, priority, index)``
  insertion sort, in one call.

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
                   const int32_t *prio, const uint8_t *flags);
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
"""

# The dense-time firing rule and candidate pipeline over the packed
# buffers.  Semantics are line-for-line the pure-Python core of
# repro.tpn.dbm.DbmEngine (which mirrors the tuple-based Floyd-
# Warshall specification of repro.tpn.stateclass); the two are locked
# together by the native-vs-pure differential suite in
# tests/test_dbm.py.  DC_INF (1 << 62) is the unbounded-bound
# sentinel; lft < 0 encodes an unbounded static LFT; flag bits:
# 2 = deadline-miss, 4 = structurally conflict-free (bit 1 is unused
# here, matching the kernel core's flag layout).
SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DC_INF ((int64_t)1 << 62)

typedef struct dc_net {
    int32_t P, T;
    const int32_t *pre_off, *pre_place, *pre_w;
    const int32_t *delta_off, *delta_place, *delta_d;
    const int32_t *pc_off, *pc_t;
    const int32_t *eft, *lft, *prio;
    const uint8_t *flags;
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
                   const int32_t *prio, const uint8_t *flags)
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
