"""The packed DBM engine's part of the native core.

This module owns the dense-time C fragment of the one extension built
by :mod:`repro.tpn._native`, over the same flat buffers the Python
side of :mod:`repro.tpn.dbm` owns.  Two entry points carry the whole
dense-time hot path, and ``dc_hash`` keys a class from scratch (the
root of a search):

* ``dc_fire`` — the firability column scan, the marking update, the
  enabled-list merge over the fired transition's affected set, the
  O(n²) incremental closure repair fused with the persistence
  projection (both reset policies: each persistent bound is written
  once, already closed) and the class key, in one call;
* ``dc_candidates`` — per-variable firability scans, the deadline-miss
  and strict-priority filters, the dense forced-immediate
  partial-order reduction and the ``(lower, priority, index)``
  insertion sort, in one call.

Both call the shared half's primitives (:mod:`repro.tpn._native`):
``ez_enabled`` for the enabled-list merge and the intermediate-policy
persistence check, ``ez_inter`` for the intermediate marking,
``ez_strict`` and ``ez_sort`` for the priority filter and the
``(lower, priority, index)`` order.  The column scans, the dense
forced-immediate pick and the closure repair stay here.

The DBM's half of the search driver plugs the two into the shared
``ez_search_*`` loop: ``dc_search_new`` roots a search (at
:meth:`repro.tpn.dbm.DbmEngine.initial_class`, the tuple engine's
root, packed), and the ``dc_ops`` table adds the min-laxity key and
the class records (a byte arena of int32 closed bounds, enabled list
and marking per class, confirmed on the marking and bound-matrix
bytes when the keys match; see ``docs/scheduling.md``, "The native
core").

A third entry point finishes a feasible search: ``dc_realize``
concretises a class path to its earliest and latest integer firing
dates, a line-for-line port of
:func:`~repro.tpn.stateclass.realize_firing_sequence` (its executable
spec, pinned by ``tests/test_native_finish.py``), called through
:meth:`repro.tpn.dbm.DbmEngine.realize`.

The module also re-exports the one core's :func:`build`,
:func:`native_module`, :func:`load`, :func:`available`,
:data:`LOAD_ERROR` and :data:`PURE_ENV`.  ``python -m
repro.tpn._dbmc`` builds the core eagerly, like ``python -m
repro.tpn._native``.
"""

from __future__ import annotations

from repro.tpn._native import CORE, PURE_ENV  # noqa: F401 - re-exported

# The DBM engine's foreign function surface.
CDEF = """
void dc_hash(const ez_net *net, const uint16_t *mark, int32_t size,
             const int32_t *dbm, uint64_t *hash_out);
int32_t dc_fire(const ez_net *net, const uint16_t *old_mark,
                const int32_t *old_enabled, int32_t k,
                const int32_t *old_dbm, int32_t t,
                int32_t intermediate, uint16_t *mark,
                int32_t *out_enabled, int32_t *out_dbm,
                uint64_t *hash_io);
int32_t dc_candidates(const ez_net *net, const int32_t *enabled,
                      int32_t k, const int32_t *dbm, int32_t strict,
                      int32_t partial_order, int32_t *out,
                      int32_t *reduced);
ez_search *dc_search_new(const ez_net *net, const uint16_t *mark0,
                         const int32_t *enabled0, int32_t k0,
                         const int32_t *dbm0, uint64_t mhash0,
                         uint64_t key0, int32_t options, uint64_t seed,
                         int64_t max_states, ez_counters *counters);
int32_t dc_realize(const ez_net *net, const uint16_t *m0,
                   const int32_t *seq, int32_t n, int32_t intermediate,
                   int64_t *earliest, int64_t *latest);
"""

# The dense-time firing rule and candidate pipeline over the packed
# buffers.  Semantics are those of the tuple-based specification of
# repro.tpn.stateclass, whose firing rule makes the same O(n^2)
# incremental closure repair as dc_fire (only the root is closed by a
# full Floyd-Warshall pass); the two are locked together class by class
# by the differential suite in tests/test_dbm.py, and the driver is
# locked to the scheduler's Python loop over the specification by
# tests/test_dbm_driver.py.  Bounds are int32 (DC_INF = INT32_MAX is
# the unbounded sentinel, repro.tpn.dbm.DINF; every finite canonical
# bound lies in [-MAX_BOUND, MAX_BOUND], see
# repro.tpn.interval.MAX_BOUND) and closure sums are int64; flag bit 1
# (immediate) is unused here.
SOURCE = r"""
#define DC_INF INT32_MAX
/* DC_INF's stand-in inside int64 closure sums: any finite bound
 * (|b| <= MAX_BOUND = 2^30) added to it stays above DC_INF, so a
 * `min` against a stored bound needs no branch. */
#define DC_FAR ((int64_t)1 << 40)

/* One lane step of the bound-matrix hash (the xxh64 round). */
static inline uint64_t dc_lane(uint64_t h, uint64_t w)
{
    h += w * 0xC2B2AE3D27D4EB4FULL;
    h = (h << 31) | (h >> 33);
    return h * 0x9E3779B185EBCA87ULL;
}

/* The bound-matrix part of a class key: a four-lane word stream over
 * the matrix bytes, 8 bytes per lane step, folded by ez_mix.  dc_fire
 * and dc_hash both key through it; a key match is confirmed on the
 * bytes, so its collisions cost a compare, never a wrong tag. */
static uint64_t dc_bounds_hash(const int32_t *dbm, size_t cells)
{
    const unsigned char *p = (const unsigned char *)dbm;
    size_t n = cells * sizeof(int32_t), i = 0;
    uint64_t a = 0x60EA27EEADC0B5D6ULL, b = 0xC2B2AE3D27D4EB4FULL;
    uint64_t c = 0x165667B19E3779F9ULL, d = 0x27D4EB2F165667C5ULL;
    uint64_t w, h;
    for (; i + 32 <= n; i += 32) {
        memcpy(&w, p + i, 8);
        a = dc_lane(a, w);
        memcpy(&w, p + i + 8, 8);
        b = dc_lane(b, w);
        memcpy(&w, p + i + 16, 8);
        c = dc_lane(c, w);
        memcpy(&w, p + i + 24, 8);
        d = dc_lane(d, w);
    }
    for (; i + 8 <= n; i += 8) {
        memcpy(&w, p + i, 8);
        a = dc_lane(a, w);
    }
    if (i < n) {
        uint32_t tail;
        memcpy(&tail, p + i, 4);
        b = dc_lane(b, tail);
    }
    h = ((a << 1) | (a >> 63)) + ((b << 7) | (b >> 57)) +
        ((c << 12) | (c >> 52)) + ((d << 18) | (d >> 46));
    return ez_mix(h ^ (uint64_t)n);
}

/* The key of a class from scratch: `hash_out[0]` receives the
 * marking key (the additive key over the marking words, see ez_slot)
 * and `hash_out[1]` the bound-matrix hash, the two words dc_fire
 * yields (the class key is their XOR). */
void dc_hash(const ez_net *net, const uint16_t *mark, int32_t size,
             const int32_t *dbm, uint64_t *hash_out)
{
    uint64_t h = 0;
    int32_t i;
    for (i = 0; i < net->P; i++)
        h += net->coef[i] * mark[i];
    hash_out[0] = h;
    hash_out[1] = dc_bounds_hash(dbm, (size_t)size * (size_t)size);
}

/* The dense-time firing rule: firability column scan, marking delta,
 * enabled-list merge, then the successor matrix written down already
 * closed — the closure repair fused with the persistence projection —
 * and its key, in one call per successor class.
 *
 * `mark` arrives as a copy of `old_mark` and is mutated in place;
 * `hash_io[0]` carries the marking hash in and out (maintained
 * incrementally), `hash_io[1]` receives the bound-matrix hash.
 * Returns the new enabled count (>= 0), -1 when `t` is not enabled
 * or not firable, -2 on token overflow (> 0xFFFF in a place). */
int32_t dc_fire(const ez_net *net, const uint16_t *old_mark,
                const int32_t *old_enabled, int32_t k,
                const int32_t *old_dbm, int32_t t,
                int32_t intermediate, uint16_t *mark,
                int32_t *out_enabled, int32_t *out_dbm,
                uint64_t *hash_io)
{
    size_t size = (size_t)(uint32_t)k + 1, new_size, i, j;
    int32_t *row_t = net->row;
    int32_t var_t = 0, u, k2 = 0, n_new = 0;
    const uint16_t *ref = NULL;
    uint64_t h;

    for (u = 0; u < k; u++) {
        if (old_enabled[u] == t) {
            var_t = u + 1;
            break;
        }
    }
    if (!var_t)
        return -1;
    /* firability: adding theta_t <= theta_u for every enabled u keeps
     * the canonical system satisfiable iff no column entry into var_t
     * is negative */
    for (i = 1; i < size; i++) {
        if (old_dbm[i * size + (size_t)var_t] < 0)
            return -1;
    }

    /* the repaired row out of var_t: with theta_t <= theta_u added,
     * its shortest paths are the column-wise minimum over every
     * enabled row (past column 0 each entry is <= 0, so finite) */
    for (j = 0; j < size; j++)
        row_t[j] = old_dbm[size + j];
    for (i = 2; i < size; i++) {
        const int32_t *row_i = old_dbm + i * size;
        for (j = 0; j < size; j++)
            row_t[j] = row_i[j] < row_t[j] ? row_i[j] : row_t[j];
    }

    /* new marking, with the marking hash maintained incrementally */
    h = hash_io[0];
    for (u = net->delta_off[t]; u < net->delta_off[t + 1]; u++) {
        int32_t p = net->delta_place[u];
        int32_t nv = (int32_t)mark[p] + net->delta_d[u];
        if (nv < 0 || nv > 0xFFFF)
            return -2;
        h += net->coef[p] * (uint64_t)(int64_t)net->delta_d[u];
        mark[p] = (uint16_t)nv;
    }
    hash_io[0] = h;

    /* the intermediate-marking reference m - W(., t) */
    if (intermediate)
        ref = ez_inter(net, old_mark, t, net->inter);

    /* the enabled list, merged from the old one and net->aff_t[t]
     * (both sorted): only an affected transition can change
     * enabledness, or lose persistence under the intermediate policy,
     * so the others carry over as persistent.  Row 0 of the successor
     * matrix comes with it: a persistent variable theta'_u = theta_u -
     * theta_t takes its lower bound from the repaired row, a newly
     * enabled one its -eft. */
    {
        int32_t a = net->aff_off[t], a_end = net->aff_off[t + 1];
        int32_t i_old = 0;
        out_dbm[0] = 0;
        while (i_old < k || a < a_end) {
            int32_t uo = i_old < k ? old_enabled[i_old] : INT32_MAX;
            int32_t ua = a < a_end ? net->aff_t[a] : INT32_MAX;
            int32_t ov = 0;
            if (uo < ua) {
                u = uo;
                ov = ++i_old;
            } else {
                u = ua;
                a++;
                if (uo == ua)
                    ov = ++i_old;
                if (!ez_enabled(net, mark, u))
                    continue;
                if (u == t || (ov && ref && !ez_enabled(net, ref, u)))
                    ov = 0;
            }
            out_enabled[k2++] = u;
            net->pers[k2] = ov;
            if (ov) {
                out_dbm[k2] = row_t[ov];
            } else {
                out_dbm[k2] = -net->eft[u];
                net->new_vars[n_new++] = k2;
            }
        }
    }
    new_size = (size_t)k2 + 1;
    /* rows 1..k2.  A persistent row keeps its old upper bound D[u][t]
     * (the repair leaves column var_t as it was) and routes every
     * other entry through var_t once: min(D[u][v], D[u][t] +
     * row_t[v]).  An entry involving a newly enabled variable routes
     * through the origin: D'[i][0] + D'[0][j]. */
    for (i = 1; i < new_size; i++) {
        int32_t *dst = out_dbm + i * new_size;
        int32_t oi = net->pers[i];
        if (oi) {
            const int32_t *src = old_dbm + (size_t)oi * size;
            int64_t up = src[var_t] == DC_INF ? DC_FAR : src[var_t];
            dst[0] = src[var_t];
            /* every column as if persistent (a new one reads src[0]),
             * then the new columns through the origin */
            for (j = 1; j < new_size; j++) {
                int64_t old = src[net->pers[j]];
                int64_t cand = up + out_dbm[j];
                dst[j] = (int32_t)(cand < old ? cand : old);
            }
            for (u = 0; u < n_new; u++) {
                j = (size_t)net->new_vars[u];
                dst[j] = (up == DC_FAR) ? DC_INF
                                        : (int32_t)(up + out_dbm[j]);
            }
        } else {
            int32_t l = net->lft[out_enabled[i - 1]];
            dst[0] = (l < 0) ? DC_INF : l;
            for (j = 1; j < new_size; j++)
                dst[j] = (l < 0) ? DC_INF
                                 : (int32_t)((int64_t)l + out_dbm[j]);
            dst[i] = 0;
        }
    }
    hash_io[1] = dc_bounds_hash(out_dbm, new_size * new_size);
    return k2;
}

/* The full dense candidate pipeline: per-variable firability column
 * scans, deadline-miss filter, optional strict priority filter,
 * optional dense forced-immediate partial-order reduction and the
 * (lower, priority, index) insertion sort.  `out` receives
 * (transition, lower) pairs; returns the count. */
int32_t dc_candidates(const ez_net *net, const int32_t *enabled,
                      int32_t k, const int32_t *dbm, int32_t strict,
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

    if (strict)
        n = ez_strict(net, out, n);

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

    ez_sort(net, out, n);
    return n;
}

/* A visited class: its record (24 bytes), plus its bytes in the arena
 * at `off`: the (k+1)^2 int32 closed bounds, the k int32 enabled
 * transitions, the uint16 marking, padded to 8 bytes.  Its key
 * (marking hash ^ bound-matrix hash) is the loop's. */
typedef struct {
    size_t off;
    uint64_t mhash; /* marking part of the key, carried into dc_fire */
    int32_t k;      /* enabled count */
} dc_class;

typedef struct {
    ez_search base;
    /* class arena (bytes) and the per-class records */
    unsigned char *arena;
    size_t arena_len, arena_cap;
    dc_class *classes;
    /* the successor under construction */
    uint16_t *cmark;
    int32_t *cenb;
    int32_t *cdbm;
    int32_t ck;
    uint64_t cmhash;
} dc_search;

static size_t dc_class_bytes(const ez_net *net, int32_t k)
{
    size_t size = (size_t)k + 1;
    size_t bytes = size * size * sizeof(int32_t)
                   + (size_t)k * sizeof(int32_t)
                   + (size_t)net->P * sizeof(uint16_t);
    return (bytes + 7) & ~(size_t)7;
}

static int32_t *dc_dbm_of(const dc_search *d, const dc_class *cls)
{
    return (int32_t *)(d->arena + cls->off);
}

static int32_t *dc_enabled_of(const dc_search *d, const dc_class *cls)
{
    size_t size = (size_t)cls->k + 1;
    return (int32_t *)(d->arena + cls->off + size * size * sizeof(int32_t));
}

static uint16_t *dc_mark_of(const dc_search *d, const dc_class *cls)
{
    return (uint16_t *)(dc_enabled_of(d, cls) + cls->k);
}

/* A class has at most T candidates, so `cap` always suffices. */
static int32_t dc_op_candidates(ez_search *s, uint32_t state,
                                int32_t *out, int32_t cap,
                                int32_t *reduced)
{
    const dc_search *d = (const dc_search *)s;
    const dc_class *cls = &d->classes[state];
    (void)cap;
    return dc_candidates(s->net, dc_enabled_of(d, cls), cls->k,
                         dc_dbm_of(d, cls), s->options & EZ_O_STRICT,
                         s->options & EZ_O_PARTIAL_ORDER, out, reduced);
}

/* Laxity of candidate t for the min-laxity policy: LFT minus the
 * surrogate clock of its task's deadline timer, eft + dbm[0][var]
 * clamped at 0 (repro.scheduler.core.StateClassSpecAdapter.clocks_view);
 * unbounded without an enabled, bounded timer. */
static int64_t dc_op_laxity(const ez_search *s, uint32_t state,
                            int32_t t)
{
    const ez_net *net = s->net;
    const dc_search *d = (const dc_search *)s;
    const dc_class *cls = &d->classes[state];
    const int32_t *enabled = dc_enabled_of(d, cls);
    int32_t m = net->timer[t], i;
    if (m < 0 || net->lft[m] < 0)
        return INT64_MAX;
    for (i = 0; i < cls->k; i++) {
        if (enabled[i] == m) {
            int64_t clock = (int64_t)net->eft[m] + dc_dbm_of(d, cls)[i + 1];
            if (clock < 0)
                clock = 0;
            return (int64_t)net->lft[m] - clock;
        }
    }
    return INT64_MAX;
}

static int32_t dc_op_fire(ez_search *s, uint32_t state, int32_t t,
                          int32_t q, uint64_t *key)
{
    dc_search *d = (dc_search *)s;
    const dc_class *parent = &d->classes[state];
    uint64_t hio[2];
    int32_t k;
    (void)q;
    memcpy(d->cmark, dc_mark_of(d, parent),
           (size_t)s->net->P * sizeof(uint16_t));
    hio[0] = parent->mhash;
    k = dc_fire(s->net, dc_mark_of(d, parent), dc_enabled_of(d, parent),
                parent->k, dc_dbm_of(d, parent), t,
                s->options & EZ_O_INTERMEDIATE, d->cmark, d->cenb,
                d->cdbm, hio);
    if (k == -2)
        return EZ_S_TOKENS;
    if (k < 0)
        return EZ_DEAD; /* not firable */
    d->ck = k;
    d->cmhash = hio[0];
    *key = hio[0] ^ hio[1];
    return 0;
}

/* Equal classes have equal keys; a key match is confirmed on the
 * marking and bound-matrix bytes (the enabled list follows from the
 * marking). */
static int dc_op_same(const ez_search *s, uint32_t idx)
{
    const dc_search *d = (const dc_search *)s;
    const dc_class *cls = &d->classes[idx];
    size_t size = (size_t)d->ck + 1;
    return cls->k == d->ck &&
           memcmp(dc_mark_of(d, cls), d->cmark,
                  (size_t)s->net->P * sizeof(uint16_t)) == 0 &&
           memcmp(dc_dbm_of(d, cls), d->cdbm,
                  size * size * sizeof(int32_t)) == 0;
}

static int dc_op_grow(ez_search *s, size_t cap)
{
    dc_search *d = (dc_search *)s;
    dc_class *classes = (dc_class *)PyMem_RawRealloc(
        d->classes, cap * sizeof(dc_class));
    if (!classes)
        return 0;
    d->classes = classes;
    return 1;
}

static int dc_op_store(ez_search *s)
{
    dc_search *d = (dc_search *)s;
    size_t size = (size_t)d->ck + 1;
    size_t dbm_bytes = size * size * sizeof(int32_t);
    size_t bytes = dc_class_bytes(s->net, d->ck);
    dc_class *cls;
    unsigned char *at;

    if (d->arena_len + bytes > d->arena_cap) {
        if (!ez_reserve((void **)&d->arena, &d->arena_cap,
                        d->arena_len + bytes, 1))
            return 0;
        ez_account(s, s->ops);
    }
    cls = &d->classes[s->n_states];
    cls->off = d->arena_len;
    cls->mhash = d->cmhash;
    cls->k = d->ck;
    d->arena_len += bytes;
    at = d->arena + cls->off;
    memcpy(at, d->cdbm, dbm_bytes);
    memcpy(at + dbm_bytes, d->cenb, (size_t)d->ck * sizeof(int32_t));
    memcpy(at + dbm_bytes + (size_t)d->ck * sizeof(int32_t), d->cmark,
           (size_t)s->net->P * sizeof(uint16_t));
    return 1;
}

static size_t dc_op_bytes(const ez_search *s)
{
    const dc_search *d = (const dc_search *)s;
    return d->arena_cap + s->cap_states * sizeof(dc_class);
}

static void dc_op_release(ez_search *s)
{
    dc_search *d = (dc_search *)s;
    PyMem_RawFree(d->arena);
    PyMem_RawFree(d->classes);
    PyMem_RawFree(d->cmark);
    PyMem_RawFree(d->cenb);
    PyMem_RawFree(d->cdbm);
}

static int32_t dc_run(ez_search *s);

static const ez_ops dc_ops = {
    dc_op_candidates, dc_op_laxity, dc_op_fire, dc_op_same,
    dc_op_grow, dc_op_store, dc_op_bytes, dc_op_release,
    dc_run,
};

static int32_t dc_run(ez_search *s)
{
    return ez_run(s, &dc_ops);
}

/* A search rooted at class (mark0, enabled0, dbm0) with marking hash
 * mhash0 and key key0; `seed` starts the random order's draws. */
ez_search *dc_search_new(const ez_net *net, const uint16_t *mark0,
                         const int32_t *enabled0, int32_t k0,
                         const int32_t *dbm0, uint64_t mhash0,
                         uint64_t key0, int32_t options, uint64_t seed,
                         int64_t max_states, ez_counters *counters)
{
    dc_search *d = (dc_search *)PyMem_RawCalloc(1, sizeof(dc_search));
    size_t size = (size_t)net->T + 1, root = (size_t)k0 + 1;
    if (!d)
        return NULL;
    d->cmark = (uint16_t *)PyMem_RawMalloc(
        (net->P ? (size_t)net->P : 1) * sizeof(uint16_t));
    d->cenb = (int32_t *)PyMem_RawMalloc(size * sizeof(int32_t));
    d->cdbm = (int32_t *)PyMem_RawMalloc(size * size * sizeof(int32_t));
    if (!ez_search_init(&d->base, net, &dc_ops, options, seed,
                        max_states, counters) || !d->cmark || !d->cenb
        || !d->cdbm) {
        ez_search_free(&d->base);
        return NULL;
    }
    d->base.cmark = d->cmark;
    memcpy(d->cmark, mark0, (size_t)net->P * sizeof(uint16_t));
    memcpy(d->cenb, enabled0, (size_t)k0 * sizeof(int32_t));
    memcpy(d->cdbm, dbm0, root * root * sizeof(int32_t));
    d->ck = k0;
    d->cmhash = mhash0;
    return ez_search_start(&d->base, key0);
}

/* ------------------------------------------------------------------
 * Concretisation: repro.tpn.stateclass.realize_firing_sequence, line
 * for line — _sequence_constraints, then _least_times and
 * _greatest_times, with the same constraint order, the same chaotic
 * iteration and the same n + 2 pass bound.  tests/test_native_finish.py
 * pins it to the spec.
 * ------------------------------------------------------------------ */
#define DC_R_DISABLED 1     /* the sequence fires a disabled transition */
#define DC_R_INCONSISTENT 2 /* the constraints admit no integer timing */
#define DC_R_RANGE 3        /* a place over the uint16 token range */
#define DC_R_NOMEM 4

/* Sort transitions by the step their open episode was stamped at. */
static void dc_by_stamp(int32_t *list, int32_t n, const int64_t *stamp)
{
    int32_t m, m2;
    for (m = 1; m < n; m++) {
        int32_t u = list[m];
        for (m2 = m - 1; m2 >= 0 && stamp[list[m2]] > stamp[u]; m2--)
            list[m2 + 1] = list[m2];
        list[m2 + 1] = u;
    }
}

/* Fire seq[0..n-1] from m0 under the reset policy: the earliest integer
 * firing dates into earliest[0..n], the latest into latest[0..n] (-1
 * where nothing forces a firing).  Returns 0 or a DC_R_* status; on a
 * status the Python spec re-runs and raises its own error. */
int32_t dc_realize(const ez_net *net, const uint16_t *m0,
                   const int32_t *seq, int32_t n, int32_t intermediate,
                   int64_t *earliest, int64_t *latest)
{
    size_t places = net->P ? (size_t)net->P : 1;
    size_t trans = net->T ? (size_t)net->T : 1;
    uint16_t *mark = (uint16_t *)PyMem_RawMalloc(places * sizeof(uint16_t));
    uint16_t *inter = (uint16_t *)PyMem_RawMalloc(places * sizeof(uint16_t));
    /* since[u]: the step u's open episode began at, -1 when closed;
     * opened[u]: its stamp, so sorting by it recovers opening order */
    int32_t *since = (int32_t *)PyMem_RawMalloc(trans * sizeof(int32_t));
    int64_t *opened = (int64_t *)PyMem_RawMalloc(trans * sizeof(int64_t));
    int32_t *ended = (int32_t *)PyMem_RawMalloc(trans * sizeof(int32_t));
    /* lower_at[k] = (low_e[k], eft[seq[k-1]]): tau_k >= tau_e + eft */
    int32_t *low_e = (int32_t *)PyMem_RawMalloc(
        ((size_t)n + 1) * sizeof(int32_t));
    /* uppers: (k, e, lft) triples, tau_k <= tau_e + lft */
    int64_t *up = NULL;
    size_t n_up = 0, up_cap = 0, i;
    int64_t stamp = 0;
    int32_t status = DC_R_INCONSISTENT, step, u, a, n_end, pass;
    const int64_t INF = INT64_MAX;

    if (!mark || !inter || !since || !opened || !ended || !low_e) {
        status = DC_R_NOMEM;
        goto out;
    }
    memcpy(mark, m0, (size_t)net->P * sizeof(uint16_t));
    for (u = 0; u < net->T; u++) {
        since[u] = -1;
        if (ez_enabled(net, mark, u)) {
            since[u] = 0;
            opened[u] = stamp++;
        }
    }
    low_e[0] = 0;

    for (step = 1; step <= n; step++) {
        int32_t fired = seq[step - 1];
        if (fired < 0 || fired >= net->T || since[fired] < 0) {
            status = DC_R_DISABLED;
            goto out;
        }
        low_e[step] = since[fired];
        if (intermediate)
            ez_inter(net, mark, fired, inter);
        for (a = net->delta_off[fired]; a < net->delta_off[fired + 1]; a++) {
            int32_t v = (int32_t)mark[net->delta_place[a]] + net->delta_d[a];
            if (v > 0xFFFF) {
                status = DC_R_RANGE;
                goto out;
            }
            mark[net->delta_place[a]] = (uint16_t)v;
        }

        n_end = 0;
        for (a = net->aff_off[fired]; a < net->aff_off[fired + 1]; a++) {
            u = net->aff_t[a];
            if (since[u] < 0)
                continue;
            if (!(u != fired && ez_enabled(net, mark, u) &&
                  (!intermediate || ez_enabled(net, inter, u))))
                ended[n_end++] = u;
        }
        dc_by_stamp(ended, n_end, opened);
        for (a = 0; a < n_end; a++) {
            /* the episode ends at this step: u was armed in the
             * pre-marking, so step `step` must respect its LFT */
            int32_t e;
            u = ended[a];
            e = since[u];
            since[u] = -1;
            if (net->lft[u] >= 0) {
                if (!ez_reserve((void **)&up, &up_cap, 3 * (n_up + 1),
                                sizeof(int64_t))) {
                    status = DC_R_NOMEM;
                    goto out;
                }
                up[3 * n_up] = step;
                up[3 * n_up + 1] = e;
                up[3 * n_up + 2] = net->lft[u];
                n_up++;
            }
        }
        for (a = net->aff_off[fired]; a < net->aff_off[fired + 1]; a++) {
            u = net->aff_t[a];
            if (since[u] < 0 && ez_enabled(net, mark, u)) {
                since[u] = step;
                opened[u] = stamp++;
            }
        }
    }
    /* episodes still open after the last firing constrained it too */
    n_end = 0;
    for (u = 0; u < net->T; u++) {
        if (since[u] >= 0)
            ended[n_end++] = u;
    }
    dc_by_stamp(ended, n_end, opened);
    for (a = 0; a < n_end; a++) {
        u = ended[a];
        if (since[u] < n && net->lft[u] >= 0) {
            if (!ez_reserve((void **)&up, &up_cap, 3 * (n_up + 1),
                            sizeof(int64_t))) {
                status = DC_R_NOMEM;
                goto out;
            }
            up[3 * n_up] = n;
            up[3 * n_up + 1] = since[u];
            up[3 * n_up + 2] = net->lft[u];
            n_up++;
        }
    }

    /* _least_times: forward lower-bound sweep, then raise the enabling
     * date of every overrun LFT; n + 2 passes prove a negative cycle */
    for (step = 0; step <= n; step++)
        earliest[step] = 0;
    for (pass = 0; pass < n + 2; pass++) {
        int changed = 0;
        for (step = 1; step <= n; step++) {
            int64_t value = earliest[step - 1];
            int64_t lower = earliest[low_e[step]] + net->eft[seq[step - 1]];
            if (lower > value)
                value = lower;
            if (value > earliest[step]) {
                earliest[step] = value;
                changed = 1;
            }
        }
        for (i = 0; i < n_up; i++) {
            int64_t need = earliest[up[3 * i]] - up[3 * i + 2];
            if (need > earliest[up[3 * i + 1]]) {
                earliest[up[3 * i + 1]] = need;
                changed = 1;
            }
        }
        if (!changed) {
            status = 0;
            break;
        }
    }
    if (status)
        goto out;

    /* _greatest_times: INF where nothing forces a firing */
    latest[0] = 0;
    for (step = 1; step <= n; step++)
        latest[step] = INF;
    for (pass = 0; pass < n + 2; pass++) {
        int changed = 0;
        for (i = 0; i < n_up; i++) {
            int64_t e = latest[up[3 * i + 1]];
            if (e != INF && e + up[3 * i + 2] < latest[up[3 * i]]) {
                latest[up[3 * i]] = e + up[3 * i + 2];
                changed = 1;
            }
        }
        for (step = n; step > 0; step--) {
            int64_t value = latest[step], cap;
            if (value == INF)
                continue;
            if (value < latest[step - 1]) {
                latest[step - 1] = value;
                changed = 1;
            }
            cap = value - net->eft[seq[step - 1]];
            if (cap < latest[low_e[step]]) {
                latest[low_e[step]] = cap;
                changed = 1;
            }
        }
        if (!changed)
            break;
    }
    for (step = 0; step <= n; step++) {
        if (latest[step] == INF)
            latest[step] = -1;
    }

out:
    PyMem_RawFree(mark);
    PyMem_RawFree(inter);
    PyMem_RawFree(since);
    PyMem_RawFree(opened);
    PyMem_RawFree(ended);
    PyMem_RawFree(low_e);
    PyMem_RawFree(up);
    return status;
}
"""

build = CORE.build
native_module = CORE.native_module
load = CORE.load
available = CORE.available


def __getattr__(name: str):
    # LOAD_ERROR is live state of the shared loader
    if name == "LOAD_ERROR":
        return CORE.load_error
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":  # pragma: no cover - CI eager build
    print(build(verbose=True))
