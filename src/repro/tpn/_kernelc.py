"""The packed kernel engine's part of the native core.

This module owns the kernel's C fragment of the one extension built by
:mod:`repro.tpn._native`; it operates *in place* on the same packed
buffers the Python side of :mod:`repro.tpn.kernel` owns (``array('H')``
marking and clock vectors), so there is no per-state marshalling.  It
has two layers:

* per-step entry points (``kn_successor``, ``kn_candidates``,
  ``kn_hash``) — one foreign call per successor or candidate list,
  used by :class:`repro.tpn.kernel.KernelEngine`'s public step API
  (``kn_candidates`` is the driver's own candidate pipeline);
* the kernel's half of the search driver: ``kn_search_new`` roots a
  search (at :meth:`repro.tpn.kernel.KernelEngine.initial`, the
  reference engine's root, lifted), and the ``kn_ops`` table plugs
  the successor, the candidate pipeline (every delay and priority
  mode and the partial-order reduction), the min-laxity key and the
  fixed-stride state records (``P + T`` words per state, marking then
  clocks) into the shared ``ez_search_*`` loop (see
  ``docs/scheduling.md``, "The native core").

The enabledness test, the intermediate marking, the strict priority
filter and the ``(delay, priority, index)`` order are the shared
half's (``ez_enabled``, ``ez_inter``, ``ez_strict``, ``ez_sort`` in
:mod:`repro.tpn._native`); this fragment keeps the kernel's window
scan, its forced-immediate pick, the delay expansion and the
incremental clock and hash updates.

The module also re-exports the one core's :func:`build`,
:func:`native_module`, :func:`load`, :func:`available`,
:data:`LOAD_ERROR` and :data:`PURE_ENV`.  ``python -m
repro.tpn._kernelc`` builds the core eagerly, like ``python -m
repro.tpn._native``.
"""

from __future__ import annotations

from repro.tpn._native import CORE, PURE_ENV  # noqa: F401 - re-exported

# The kernel's foreign function surface.
CDEF = """
uint64_t kn_hash(const ez_net *net, const uint16_t *mark,
                 const uint16_t *clk);
int32_t kn_successor(const ez_net *net, const uint16_t *old_mark,
                     const uint16_t *old_clk, uint16_t *mark,
                     uint16_t *clk, uint64_t *hash_io, int32_t t,
                     int32_t q, int32_t intermediate);
int32_t kn_candidates(const ez_net *net, const uint16_t *clk,
                      int32_t strict, int32_t partial_order,
                      int32_t mode, int32_t *out, int32_t cap,
                      int32_t *reduced);
ez_search *kn_search_new(const ez_net *net, const uint16_t *mark0,
                         const uint16_t *clk0, uint64_t key0,
                         int32_t options, uint64_t seed,
                         int64_t max_states, ez_counters *counters);
"""

# The successor/firable/min-DUB inner loop over the packed buffers.
# Semantics are those of the checked reference engine of
# repro.tpn.state; the two are locked together step by step by the
# differential walks in tests/test_kernel_engine.py, and the driver is
# locked to the scheduler's Python loop over the reference by
# tests/test_kernel_driver.py.
# DIS (0xFFFF) marks a disabled transition's clock.
SOURCE = r"""
#define KN_DIS 0xFFFFu
#define KN_INF_CEILING INT32_MAX

/* The additive key of a packed state from scratch (see ez_slot): the
 * marking words take coefficients 0..P-1, the clock words P..P+T-1. */
uint64_t kn_hash(const ez_net *net, const uint16_t *mark,
                 const uint16_t *clk)
{
    const uint64_t *cc = net->coef + net->P;
    uint64_t h = 0;
    int32_t i;
    for (i = 0; i < net->P; i++)
        h += net->coef[i] * mark[i];
    for (i = 0; i < net->T; i++)
        h += cc[i] * clk[i];
    return h;
}

/* Definition 3.1 over the packed buffers.  `mark`/`clk` arrive as
 * copies of `old_mark`/`old_clk` and are mutated in place; the state
 * key is maintained incrementally, one multiply-add per changed word
 * (and one per delay for the bulk clock advance).  Returns 0 on
 * success, 1 on marking overflow (> 0xFFFF tokens in a place), 2 on
 * clock overflow (>= 0xFFFF). */
int32_t kn_successor(const ez_net *net, const uint16_t *old_mark,
                     const uint16_t *old_clk, uint16_t *mark,
                     uint16_t *clk, uint64_t *hash_io, int32_t t,
                     int32_t q, int32_t intermediate)
{
    const uint64_t *cc = net->coef + net->P;
    uint64_t h = *hash_io;
    int32_t i, j;
    const uint16_t *ref = NULL;

    for (i = net->delta_off[t]; i < net->delta_off[t + 1]; i++) {
        int32_t p = net->delta_place[i];
        int32_t nv = (int32_t)mark[p] + net->delta_d[i];
        if (nv < 0 || nv > 0xFFFF)
            return 1;
        h += net->coef[p] * (uint64_t)(int64_t)net->delta_d[i];
        mark[p] = (uint16_t)nv;
    }

    if (q) {
        /* every enabled clock advances by q, branch-free (a disabled
         * one adds 0 and stays DIS): the key moves by q times the sum
         * of the enabled clocks' coefficients */
        int32_t T = net->T;
        uint64_t sum = 0;
        uint32_t over = 0;
        for (j = 0; j < T; j++) {
            uint32_t v = clk[j];
            uint32_t on = v != KN_DIS;
            uint32_t nv = v + ((uint32_t)q & (0u - on));
            over |= on & (nv >= KN_DIS);
            sum += cc[j] & (0 - (uint64_t)on);
            clk[j] = (uint16_t)nv;
        }
        if (over)
            return 2;
        h += (uint64_t)q * sum;
    }

    /* enabledness transiently re-checked against m - W(., t) */
    if (intermediate)
        ref = ez_inter(net, old_mark, t, net->inter);

    for (i = net->aff_off[t]; i < net->aff_off[t + 1]; i++) {
        int32_t tk = net->aff_t[i];
        uint32_t oldc = old_clk[tk];
        if (!ez_enabled(net, mark, tk)) {
            if (oldc != KN_DIS) {
                h += cc[tk] * (uint64_t)(KN_DIS - clk[tk]);
                clk[tk] = (uint16_t)KN_DIS;
            }
        } else if (oldc == KN_DIS) {
            /* newly enabled: clock resets to zero (the bulk advance
             * skipped disabled entries, so clk[tk] is still DIS) */
            h -= cc[tk] * (uint64_t)KN_DIS;
            clk[tk] = 0;
        } else if (tk == t || (ref && !ez_enabled(net, ref, tk))) {
            /* fired, or disabled at m - W(., t): the clock resets */
            h -= cc[tk] * (uint64_t)clk[tk];
            clk[tk] = 0;
        }
        /* else persistent: the bulk advance already set it */
    }
    *hash_io = h;
    return 0;
}

/* Min-DUB ceiling plus the unfiltered (transition, lower) firing
 * window in ascending index order; deadline-miss transitions never
 * become candidates but their LFTs still cap the ceiling.  One
 * branch-free pass compacts the enabled transitions into net->en; the
 * ceiling and the window then scan that list only, selecting instead
 * of branching: every enabled transition is written to `out`, and
 * only a window member advances the count. */
static int32_t kn_scan(const ez_net *net, const uint16_t *clk,
                       int32_t *out, int32_t *ceiling_out)
{
    int32_t *en = net->en;
    int32_t T = net->T;
    int32_t ceiling = KN_INF_CEILING;
    int32_t tk, i, k = 0, n = 0;

    for (tk = 0; tk < T; tk++) {
        en[k] = tk;
        k += clk[tk] != KN_DIS;
    }
    for (i = 0; i < k; i++) {
        int32_t l = net->lft[en[i]];
        int32_t dub = l < 0 ? KN_INF_CEILING /* unbounded LFT */
                            : l - (int32_t)clk[en[i]];
        ceiling = dub < ceiling ? dub : ceiling;
    }
    for (i = 0; i < k; i++) {
        int32_t lo;
        tk = en[i];
        lo = net->eft[tk] - (int32_t)clk[tk];
        lo = lo < 0 ? 0 : lo;
        out[2 * n] = tk;
        out[2 * n + 1] = lo;
        n += (lo <= ceiling) & !(net->flags[tk] & 2);
    }
    *ceiling_out = ceiling;
    return n;
}

/* The whole candidate pipeline of one state: window, strict priority
 * filter, forced-immediate partial-order reduction, the delay-policy
 * expansion (mode 0 = earliest, 1 = extremes, 2 = full) against the
 * min-DUB ceiling and the (delay, priority, index) order.  An
 * unbounded ceiling collapses to earliest-only ordering, exactly like
 * the reference adapter's repro.scheduler.core.order_and_expand.
 * `out` receives up to `cap` (transition, delay) pairs; returns the
 * count, or -needed when `cap` is too small (the caller grows the
 * buffer and retries). */
static int32_t kn_enumerate(const ez_net *net, const uint16_t *clk,
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

    if (strict)
        n = ez_strict(net, cand, n);

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
                 * expansion below, like the reference adapter's */
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
        ez_sort(net, out, n);
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
    ez_sort(net, out, m);
    return m;
}

/* The per-step API's entry to the driver's pipeline: kn_enumerate on
 * a caller's clock buffer, same modes, same -needed protocol. */
int32_t kn_candidates(const ez_net *net, const uint16_t *clk,
                      int32_t strict, int32_t partial_order,
                      int32_t mode, int32_t *out, int32_t cap,
                      int32_t *reduced)
{
    return kn_enumerate(net, clk, strict, partial_order, mode, out,
                        cap, reduced);
}

/* The kernel's state records: a fixed-stride arena of W = P + T words
 * per visited state, marking then clocks. */
typedef struct {
    ez_search base;
    int32_t W, mode; /* mode 0 = earliest, 1 = extremes, 2 = full */
    uint16_t *arena;
    uint16_t *child;
} kn_search;

static const uint16_t *kn_state(const ez_search *s, uint32_t state)
{
    const kn_search *k = (const kn_search *)s;
    return k->arena + (size_t)state * (size_t)k->W;
}

static int32_t kn_op_candidates(ez_search *s, uint32_t state,
                                int32_t *out, int32_t cap,
                                int32_t *reduced)
{
    return kn_enumerate(s->net, kn_state(s, state) + s->net->P,
                        s->options & EZ_O_STRICT,
                        s->options & EZ_O_PARTIAL_ORDER,
                        ((kn_search *)s)->mode, out, cap, reduced);
}

/* Laxity of candidate t for the min-laxity policy: LFT - clock of its
 * task's deadline timer, unbounded without an armed, bounded timer. */
static int64_t kn_op_laxity(const ez_search *s, uint32_t state,
                            int32_t t)
{
    const ez_net *net = s->net;
    const uint16_t *clk = kn_state(s, state) + net->P;
    int32_t m = net->timer[t];
    if (m < 0 || clk[m] == KN_DIS || net->lft[m] < 0)
        return INT64_MAX;
    return (int64_t)net->lft[m] - clk[m];
}

static int32_t kn_op_fire(ez_search *s, uint32_t state, int32_t t,
                          int32_t q, uint64_t *key)
{
    kn_search *k = (kn_search *)s;
    const uint16_t *parent = kn_state(s, state);
    int32_t P = s->net->P, status;
    *key = s->keys[state];
    memcpy(k->child, parent, (size_t)k->W * sizeof(uint16_t));
    status = kn_successor(s->net, parent, parent + P, k->child,
                          k->child + P, key, t, q,
                          s->options & EZ_O_INTERMEDIATE);
    return status == 0 ? 0 : status == 1 ? EZ_S_TOKENS : EZ_S_CLOCK;
}

static int kn_op_same(const ez_search *s, uint32_t idx)
{
    const kn_search *k = (const kn_search *)s;
    return memcmp(kn_state(s, idx), k->child,
                  (size_t)k->W * sizeof(uint16_t)) == 0;
}

static int kn_op_grow(ez_search *s, size_t cap)
{
    kn_search *k = (kn_search *)s;
    uint16_t *arena = (uint16_t *)PyMem_RawRealloc(
        k->arena, cap * (size_t)k->W * sizeof(uint16_t));
    if (!arena)
        return 0;
    k->arena = arena;
    return 1;
}

static int kn_op_store(ez_search *s)
{
    kn_search *k = (kn_search *)s;
    memcpy(k->arena + s->n_states * (size_t)k->W, k->child,
           (size_t)k->W * sizeof(uint16_t));
    return 1;
}

static size_t kn_op_bytes(const ez_search *s)
{
    return s->cap_states * (size_t)((const kn_search *)s)->W
           * sizeof(uint16_t);
}

static void kn_op_release(ez_search *s)
{
    PyMem_RawFree(((kn_search *)s)->arena);
    PyMem_RawFree(((kn_search *)s)->child);
}

static int32_t kn_run(ez_search *s);

static const ez_ops kn_ops = {
    kn_op_candidates, kn_op_laxity, kn_op_fire, kn_op_same,
    kn_op_grow, kn_op_store, kn_op_bytes, kn_op_release,
    kn_run,
};

static int32_t kn_run(ez_search *s)
{
    return ez_run(s, &kn_ops);
}

/* A search rooted at state (mark0, clk0) with key key0; `seed` starts
 * the random order's draws. */
ez_search *kn_search_new(const ez_net *net, const uint16_t *mark0,
                         const uint16_t *clk0, uint64_t key0,
                         int32_t options, uint64_t seed,
                         int64_t max_states, ez_counters *counters)
{
    kn_search *k = (kn_search *)PyMem_RawCalloc(1, sizeof(kn_search));
    size_t W = (size_t)net->P + (size_t)net->T;
    if (!k)
        return NULL;
    k->W = (int32_t)W;
    k->mode = (options & EZ_O_FULL) ? 2 : (options & EZ_O_EXTREMES) ? 1 : 0;
    k->child = (uint16_t *)PyMem_RawMalloc((W ? W : 1) * sizeof(uint16_t));
    if (!ez_search_init(&k->base, net, &kn_ops, options, seed,
                        max_states, counters) || !k->child) {
        ez_search_free(&k->base);
        return NULL;
    }
    k->base.cmark = k->child;
    memcpy(k->child, mark0, (size_t)net->P * sizeof(uint16_t));
    memcpy(k->child + net->P, clk0, (size_t)net->T * sizeof(uint16_t));
    return ez_search_start(&k->base, key0);
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
