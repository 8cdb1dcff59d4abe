"""The one native core: a cffi extension shared by both packed engines.

Both packed engines — the discrete kernel (:mod:`repro.tpn.kernel`)
and the dense DBM engine (:mod:`repro.tpn.dbm`) — run their hot paths
in one small C translation unit, embedded as strings (so the sdist
needs no extra data files) and compiled on demand through cffi's API
mode into one shared object.  The unit has three parts:

* this module's half, written once: the prelude (includes, the raw
  allocator, the splitmix ``ez_mix`` and the visited table's slot of
  the additive state key, ``ez_slot``), the compiled net (``ez_net``,
  one struct and one constructor for both engines, with the key's
  coefficient table), the firing-rule primitives both
  engines call — the enabledness test ``ez_enabled``, the
  intermediate marking m − W(·, t) ``ez_inter``, the strict priority
  filter ``ez_strict`` and the ``(delay, priority, index)`` candidate
  order ``ez_sort`` — the resumable depth-first search driver
  (``ez_search_*``) — :meth:`PreRuntimeScheduler._run
  <repro.scheduler.dfs.PreRuntimeScheduler._run>`'s loop with its frame stack,
  candidate pool, visited table, deadline and final predicates,
  every policy's candidate order, state budget and polls — and
  the reference replay (``ez_replay``, :func:`replay`), Definition 3.1
  checked naively step by step, the C twin of
  :func:`repro.scheduler.core.validate_with_reference`'s Python loop;
* :mod:`repro.tpn._kernelc`'s fragment: the kernel's successor,
  candidate and window scans and its fixed-stride state records;
* :mod:`repro.tpn._dbmc`'s fragment: the DBM firing rule and
  candidate pipeline, its variable-size class records and the
  concretisation of a class path (``dc_realize``).

What stays in each fragment is what reads the engine's own state
layout or keeps its own hash: the window scans, the forced-immediate
pick and the marking and clock (or bound-matrix) updates.

An engine plugs into the driver through an operations table
(``ez_ops``: candidates, laxity, fire, and the state-record ops), the
way :class:`~repro.scheduler.dfs.PreRuntimeScheduler` is parameterised by
:class:`~repro.scheduler.core.EngineAdapter`; each engine's
``*_search_new`` roots a search — at its executable spec's root,
packed on the Python side (:meth:`repro.tpn.kernel.KernelEngine.initial`,
:meth:`repro.tpn.dbm.DbmEngine.initial_class`) — and returns the
common handle that :class:`NativeSearch` wraps.  The GIL stays
released for the whole call.

The driver's memory comes from ``PyMem_RawMalloc``/``PyMem_RawRealloc``,
so ``tracemalloc`` sees it, and :meth:`NativeSearch.close` hands it back
to the allocator with ``PyMem_RawFree``, not to the OS: the freed pages
stay warm for the next search in the same process, which reuses them
without faulting them in again.  What the allocator keeps is bounded by
glibc itself: a block over its dynamic mmap ceiling (32 MiB on 64-bit)
is unmapped on free, and the heap top is trimmed past twice the mmap
threshold.

Everything degrades gracefully — :func:`core_for` asks
:meth:`NativeCore.load` for the compiled module, and whenever the
answer is ``None`` the scheduler runs each engine's executable spec
instead (the reference ``StateEngine`` for ``engine="kernel"``, the
tuple ``StateClassEngine`` for ``engine="stateclass"``; see
:func:`repro.scheduler.core.make_adapter`):

* ``EZRT_PURE=1`` in the environment force-disables the core (checked
  per :meth:`~NativeCore.load` call, so tests can flip it without
  reloading the process);
* a missing cffi, a missing C compiler, an unwritable cache directory
  or any other build/import failure is swallowed after recording the
  exception on :attr:`NativeCore.load_error` (each engine's core
  module exposes it as its ``LOAD_ERROR``).

Build caching: the shared object lands in ``_native_build/<digest>-pyXY/``
beside this package (or under ``$EZRT_KERNEL_CACHE``, which takes
precedence, or under the system temp directory when the package is not
writable), keyed by a digest of the whole translation unit, so editing
any fragment never picks up a stale binary.  Each build compiles in a
temporary directory inside its cache directory and publishes with one
``os.replace``, atomic on that filesystem, so concurrent builders
(pytest workers, portfolio processes, the ``ezrt serve`` pool) can
only race to publish identical complete files.

``python -m repro.tpn._native`` builds eagerly (CI does this so a
broken toolchain fails loudly); see ``pyproject.toml``'s ``native``
extra for the cffi pin.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import tempfile
from array import array

try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without its own BLAKE2
    from hashlib import blake2b

from repro.tpn.interval import INF

#: Environment variable that force-disables the compiled core (one
#: switch: every engine runs its executable spec).
PURE_ENV = "EZRT_PURE"

#: Environment variable naming a preferred build cache root.
CACHE_ENV = "EZRT_KERNEL_CACHE"

#: The extension's module name, its build directory beside this
#: package and its directory prefix under the system temp directory.
MODULE_NAME = "_ezrt_native"
BUILD_DIR = "_native_build"
TEMP_PREFIX = "ezrt-native"

#: The engine modules whose C fragments (``CDEF``, ``SOURCE``) follow
#: this module's in the translation unit.
ENGINE_MODULES = ("repro.tpn._kernelc", "repro.tpn._dbmc")

# The shared foreign function surface.
CDEF = """
typedef struct ez_net ez_net;
ez_net *ez_net_new(int32_t num_places, int32_t num_transitions,
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
void ez_net_free(ez_net *net);

typedef struct {
    int64_t visited, generated, revisits, prunes, backtracks;
    int64_t reductions, depth;
    int64_t succ_ns, succ_calls, cand_ns, cand_calls;
    int64_t visited_bytes;
    int32_t pending;
    int32_t fault;
} ez_counters;
typedef struct ez_search ez_search;
int32_t ez_search_run(ez_search *s);
void ez_search_path(const ez_search *s, int64_t *out);
void ez_search_free(ez_search *s);
int32_t ez_replay(const ez_net *net, const uint16_t *m0,
                  int32_t intermediate, const int64_t *steps, int32_t n);
"""

# The prelude, the compiled net and the search driver.  The driver is
# PreRuntimeScheduler._run's loop; tests/test_kernel_driver.py and
# tests/test_dbm_driver.py lock it to that loop over each engine's
# executable spec.
# lft < 0 encodes an unbounded LFT; flag bits: 1 = immediate [0,0],
# 2 = deadline-miss, 4 = structurally conflict-free, 8 = touches a
# deadline-miss place, 16 = touches a final-constrained place.
SOURCE = r"""
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* CPython's raw allocator domain: thread-safe without the GIL and
 * traced by tracemalloc.  Declared here because cffi may build against
 * the limited API, whose headers hide it before 3.13. */
void *PyMem_RawMalloc(size_t size);
void *PyMem_RawCalloc(size_t nelem, size_t elsize);
void *PyMem_RawRealloc(void *ptr, size_t new_size);
void PyMem_RawFree(void *ptr);

/* splitmix64 finalizer: builds the state key's coefficients and
 * draws the random order. */
static uint64_t ez_mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* The additive state key: sum of coef[i] * word[i] mod 2^64 over a
 * state's packed words (the P marking words, then the kernel's T clock
 * words), with coef[i] = ez_mix(i) | 1 built once per net.  Every
 * update is a multiply-add: a word changing by d moves the key by
 * coef[i] * d, and a delay q that advances every enabled clock moves it
 * by q times the sum of their coefficients.  Both engines key the
 * marking the same way.  The key is linear, so its low bits are weak
 * (bit 0 is the parity of the word sum): the visited table is indexed
 * by the top bits of its Fibonacci product, ez_slot. */
static size_t ez_slot(uint64_t key, int32_t shift)
{
    return (size_t)((key * 0x9E3779B97F4A7C15ULL) >> shift);
}

typedef struct ez_net {
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
    uint64_t *coef;    /* P+T: the additive key's coefficients */
    uint16_t *inter;   /* P: the intermediate marking (ez_inter) */
    /* kernel scratch */
    int32_t *cand;     /* 2(T+1): pre-expansion candidate pairs */
    int32_t *en;       /* T+1: the enabled transitions (kn_scan) */
    /* DBM scratch */
    int32_t *row;      /* T+1: the fired variable's repaired row */
    int32_t *pers;     /* T+1: new variable -> old variable (0=fresh) */
    int32_t *new_vars; /* T+1: newly enabled variable list */
    uint8_t *mask;     /* T+1: enabled-membership scratch */
} ez_net;

void ez_net_free(ez_net *net)
{
    if (net) {
        free(net->coef);
        free(net->inter);
        free(net->cand);
        free(net->en);
        free(net->row);
        free(net->pers);
        free(net->new_vars);
        free(net->mask);
        free(net);
    }
}

ez_net *ez_net_new(int32_t num_places, int32_t num_transitions,
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
    size_t size = (size_t)num_transitions + 1;
    size_t places = num_places ? (size_t)num_places : 1;
    size_t words = (size_t)num_places + (size_t)num_transitions, i;
    ez_net *net = (ez_net *)calloc(1, sizeof(ez_net));
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
    net->coef = (uint64_t *)malloc((words ? words : 1) * sizeof(uint64_t));
    net->inter = (uint16_t *)malloc(places * sizeof(uint16_t));
    net->cand = (int32_t *)malloc(2 * size * sizeof(int32_t));
    net->en = (int32_t *)malloc(size * sizeof(int32_t));
    net->row = (int32_t *)malloc(size * sizeof(int32_t));
    net->pers = (int32_t *)malloc(size * sizeof(int32_t));
    net->new_vars = (int32_t *)malloc(size * sizeof(int32_t));
    net->mask = (uint8_t *)calloc(size, sizeof(uint8_t));
    if (!net->coef || !net->inter || !net->cand || !net->en ||
        !net->row || !net->pers || !net->new_vars || !net->mask) {
        ez_net_free(net);
        return NULL;
    }
    for (i = 0; i < words; i++)
        net->coef[i] = ez_mix(i) | 1;
    return net;
}

/* ------------------------------------------------------------------
 * The firing-rule primitives both engines share (Definition 3.1).
 * ------------------------------------------------------------------ */

/* Whether marking m enables transition t. */
static int ez_enabled(const ez_net *net, const uint16_t *m, int32_t t)
{
    int32_t i;
    for (i = net->pre_off[t]; i < net->pre_off[t + 1]; i++) {
        if (m[net->pre_place[i]] < net->pre_w[i])
            return 0;
    }
    return 1;
}

/* The intermediate marking m - W(., t) into `out` (P words), the
 * reference the "intermediate" reset policy re-checks persistence
 * against; t is enabled by m, so no place goes negative.  Returns
 * `out`. */
static const uint16_t *ez_inter(const ez_net *net, const uint16_t *m,
                                int32_t t, uint16_t *out)
{
    int32_t i;
    memcpy(out, m, (size_t)net->P * sizeof(uint16_t));
    for (i = net->pre_off[t]; i < net->pre_off[t + 1]; i++)
        out[net->pre_place[i]] -= (uint16_t)net->pre_w[i];
    return out;
}

/* The strict priority filter on n >= 1 (transition, delay) pairs in
 * place: only the pairs of the best (smallest) priority stay, in
 * order.  Returns their count. */
static int32_t ez_strict(const ez_net *net, int32_t *pairs, int32_t n)
{
    int32_t best = net->prio[pairs[0]], k, m = 0;
    for (k = 1; k < n; k++)
        if (net->prio[pairs[2 * k]] < best)
            best = net->prio[pairs[2 * k]];
    for (k = 0; k < n; k++) {
        if (net->prio[pairs[2 * k]] == best) {
            pairs[2 * m] = pairs[2 * k];
            pairs[2 * m + 1] = pairs[2 * k + 1];
            m++;
        }
    }
    return m;
}

/* The candidate order: an insertion sort of n (transition, delay)
 * pairs by (delay, priority, index); candidate lists are window-sized,
 * typically < 16 entries. */
static void ez_sort(const ez_net *net, int32_t *pairs, int32_t n)
{
    int32_t k;
    for (k = 1; k < n; k++) {
        int32_t tc = pairs[2 * k], qd = pairs[2 * k + 1];
        int32_t pk = net->prio[tc];
        int32_t m = k - 1;
        while (m >= 0) {
            int32_t tm = pairs[2 * m], qm = pairs[2 * m + 1];
            int32_t pm = net->prio[tm];
            if (qm > qd || (qm == qd && (pm > pk || (pm == pk && tm > tc)))) {
                pairs[2 * m + 2] = tm;
                pairs[2 * m + 3] = qm;
                m--;
            } else {
                break;
            }
        }
        pairs[2 * m + 2] = tc;
        pairs[2 * m + 3] = qd;
    }
}

/* ------------------------------------------------------------------
 * The search driver: the scheduler's depth-first loop, resumable.
 *
 * ez_search_run runs until one of the statuses below and saves where
 * it stopped, so the next call resumes exactly there.  Every counter
 * is the scheduler's, updated at the same points of the loop.
 * ------------------------------------------------------------------ */
#define EZ_S_DONE 0     /* stack empty: space exhausted, no schedule */
#define EZ_S_POLL 1     /* 1024-expansion poll; resume to continue */
#define EZ_S_FEASIBLE 3 /* final marking reached; see ez_search_path */
#define EZ_S_BUDGET 4   /* max_states reached */
#define EZ_S_TOKENS 5   /* token overflow firing counters->fault */
#define EZ_S_CLOCK 6    /* clock overflow firing counters->fault */
#define EZ_S_NOMEM 7    /* an allocation failed */

#define EZ_DEAD (-1)    /* ez_ops.fire: no successor (a prune) */

#define EZ_O_INTERMEDIATE 1
#define EZ_O_STRICT 2
#define EZ_O_PARTIAL_ORDER 4
#define EZ_O_EXTREMES 8 /* kernel delay modes */
#define EZ_O_FULL 16
#define EZ_O_RANDOM 32
#define EZ_O_TIMED 64
#define EZ_O_LATEST 128
#define EZ_O_LAXITY 256

#define EZ_POLL_MASK 0x3FF

enum { EZ_PH_ROOT, EZ_PH_LOOP, EZ_PH_STEP, EZ_PH_OVER };

typedef struct {
    int64_t visited, generated, revisits, prunes, backtracks;
    int64_t reductions, depth;
    int64_t succ_ns, succ_calls, cand_ns, cand_calls;
    int64_t visited_bytes;
    int32_t pending; /* path length (FEASIBLE) */
    int32_t fault;   /* transition whose firing overflowed */
} ez_counters;

typedef struct {
    int64_t now;    /* absolute time at this frame's state */
    uint32_t state; /* stored state index */
    uint32_t off;   /* first candidate word in the pool */
    int32_t n, index;
    int32_t t, q;   /* the firing that produced this frame */
} ez_frame;

typedef struct ez_search ez_search;

/* An engine's half of the driver: its candidate pipeline, its step and
 * its state records.  The loop stores the visited states' keys; the
 * engine stores the states, and builds each successor in buffers of its
 * own (the child) with the marking at ez_search.cmark. */
typedef struct {
    /* candidate pairs of stored state `state` into `out` (room for
     * `cap` pairs): the count, or -needed when `cap` is too small */
    int32_t (*candidates)(ez_search *s, uint32_t state, int32_t *out,
                          int32_t cap, int32_t *reduced);
    /* min-laxity sort key of candidate t of stored state `state` */
    int64_t (*laxity)(const ez_search *s, uint32_t state, int32_t t);
    /* build the child of stored state `state` by firing (t, q): 0 with
     * its key in *key, EZ_DEAD, or EZ_S_TOKENS / EZ_S_CLOCK */
    int32_t (*fire)(ez_search *s, uint32_t state, int32_t t, int32_t q,
                    uint64_t *key);
    /* whether stored state `idx` equals the child (the keys match) */
    int (*same)(const ez_search *s, uint32_t idx);
    /* grow the state records to `cap` states; 0 on allocation failure */
    int (*grow)(ez_search *s, size_t cap);
    /* store the child as state n_states; 0 on allocation failure */
    int (*store)(ez_search *s);
    /* bytes the state records hold */
    size_t (*bytes)(const ez_search *s);
    /* free the engine's buffers */
    void (*release)(ez_search *s);
    /* ez_run instantiated on this table */
    int32_t (*run)(ez_search *s);
} ez_ops;

/* The loop and its helpers take the ops table as a parameter and are
 * inlined into each engine's `run` with its table as a constant, so
 * the compiler calls (and inlines) the engine's ops directly. */
#if defined(__GNUC__)
#define EZ_INLINE static inline __attribute__((always_inline))
#else
#define EZ_INLINE static inline
#endif

/* The common search handle; each engine's search struct starts with
 * one. */
struct ez_search {
    const ez_net *net;
    const ez_ops *ops;
    ez_counters *c;
    int32_t options, phase;
    int64_t max_states;
    /* the visited states' keys, and an open-addressing table over
     * them: state index + 1, 0 = empty */
    uint64_t *keys;
    size_t n_states, cap_states;
    uint32_t *table;
    size_t table_cap;
    int32_t table_shift; /* 64 - log2(table_cap), for ez_slot */
    ez_frame *frames;
    size_t n_frames, cap_frames;
    /* candidate pairs of every open frame, stacked like the frames */
    int32_t *pool;
    size_t pool_len, pool_cap;
    const uint16_t *cmark; /* the child's marking */
    int32_t pend_t, pend_q;
    int64_t pend_now;
    uint64_t draw; /* the random order's next splitmix input */
};

static int64_t ez_now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int ez_reserve(void **buf, size_t *cap, size_t need, size_t elem)
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

EZ_INLINE void ez_account(ez_search *s, const ez_ops *ops)
{
    s->c->visited_bytes = (int64_t)(
        s->cap_states * sizeof(uint64_t) + s->table_cap * sizeof(uint32_t)
        + ops->bytes(s));
}

/* Tag the child: 1 when it was already visited, 0 when it was stored
 * and entered in the table, -1 when an allocation failed. */
EZ_INLINE int ez_visit(ez_search *s, const ez_ops *ops, uint64_t key)
{
    size_t mask = s->table_cap - 1;
    size_t i = ez_slot(key, s->table_shift), idx;
    uint32_t e;

    while ((e = s->table[i]) != 0) {
        idx = e - 1;
        if (s->keys[idx] == key && ops->same(s, (uint32_t)idx))
            return 1;
        i = (i + 1) & mask;
    }
    if (s->n_states >= 0xFFFFFFFEu)
        return -1; /* state indices are 32-bit */
    if (s->n_states == s->cap_states) {
        size_t cap = s->cap_states ? 2 * s->cap_states : 64;
        uint64_t *keys = (uint64_t *)PyMem_RawRealloc(
            s->keys, cap * sizeof(uint64_t));
        if (!keys)
            return -1;
        s->keys = keys;
        if (!ops->grow(s, cap))
            return -1;
        s->cap_states = cap;
        ez_account(s, ops);
    }
    if (2 * (s->n_states + 1) > s->table_cap) {
        size_t ncap = 2 * s->table_cap, k;
        uint32_t *grown = (uint32_t *)PyMem_RawCalloc(ncap,
                                                      sizeof(uint32_t));
        if (!grown)
            return -1;
        mask = ncap - 1;
        s->table_shift--;
        for (k = 0; k < s->n_states; k++) {
            size_t j = ez_slot(s->keys[k], s->table_shift);
            while (grown[j])
                j = (j + 1) & mask;
            grown[j] = (uint32_t)(k + 1);
        }
        PyMem_RawFree(s->table);
        s->table = grown;
        s->table_cap = ncap;
        ez_account(s, ops);
        i = ez_slot(key, s->table_shift);
        while (s->table[i])
            i = (i + 1) & mask;
    }
    if (!ops->store(s))
        return -1;
    idx = s->n_states++;
    s->keys[idx] = key;
    s->table[i] = (uint32_t)(idx + 1);
    return 0;
}

/* Swap pairs k and m of a candidate list. */
static void ez_swap(int32_t *out, int32_t k, int32_t m)
{
    int32_t pair[2];
    memcpy(pair, out + 2 * k, sizeof pair);
    memcpy(out + 2 * k, out + 2 * m, sizeof pair);
    memcpy(out + 2 * m, pair, sizeof pair);
}

/* The latest, random and min-laxity policies of repro.scheduler.policies
 * on n (transition, delay) pairs in place: latest reverses them, random
 * shuffles them (make_reorder's splitmix64 Fisher-Yates), min-laxity
 * sorts them by (delay, laxity, index). */
EZ_INLINE void ez_order(ez_search *s, const ez_ops *ops,
                        uint32_t state, int32_t *out, int32_t n)
{
    int32_t k, m;
    if (s->options & EZ_O_LATEST) {
        for (k = 0, m = n - 1; k < m; k++, m--)
            ez_swap(out, k, m);
        return;
    }
    if (s->options & EZ_O_RANDOM) {
        for (k = n - 1; k > 0; k--) {
            m = (int32_t)(ez_mix(s->draw) % (uint64_t)(k + 1));
            s->draw += 0x9E3779B97F4A7C15ULL;
            ez_swap(out, k, m);
        }
        return;
    }
    for (k = 1; k < n; k++) {
        int32_t tc = out[2 * k], qd = out[2 * k + 1];
        int64_t lc = ops->laxity(s, state, tc);
        for (m = k - 1; m >= 0; m--) {
            int32_t tm = out[2 * m], qm = out[2 * m + 1];
            int64_t lm = ops->laxity(s, state, tm);
            if (!(qm > qd || (qm == qd && (lm > lc || (lm == lc && tm > tc)))))
                break;
            out[2 * m + 2] = tm;
            out[2 * m + 3] = qm;
        }
        out[2 * m + 2] = tc;
        out[2 * m + 3] = qd;
    }
}

/* Open a frame on stored state `state`: enumerate its candidates onto
 * the pool, in the order of a native policy when one is set.  Returns
 * the candidate count, -1 on allocation failure. */
EZ_INLINE int32_t ez_push(ez_search *s, const ez_ops *ops,
                          uint32_t state, int64_t now, int32_t t,
                          int32_t q)
{
    ez_counters *c = s->c;
    size_t need = 2 * (size_t)(s->net->T ? s->net->T : 1);
    int32_t n, reduced;
    int64_t t0 = 0;
    ez_frame *f;

    if (!ez_reserve((void **)&s->frames, &s->cap_frames,
                    s->n_frames + 1, sizeof(ez_frame)))
        return -1;
    if (s->options & EZ_O_TIMED)
        t0 = ez_now_ns();
    for (;;) {
        if (!ez_reserve((void **)&s->pool, &s->pool_cap,
                        s->pool_len + need, sizeof(int32_t)))
            return -1;
        n = ops->candidates(s, state, s->pool + s->pool_len,
                            (int32_t)((s->pool_cap - s->pool_len) / 2),
                            &reduced);
        if (n >= 0) {
            if (s->options & (EZ_O_LATEST | EZ_O_RANDOM | EZ_O_LAXITY))
                ez_order(s, ops, state, s->pool + s->pool_len, n);
            break;
        }
        need = 2 * (size_t)(-n);
    }
    if (s->options & EZ_O_TIMED)
        c->cand_ns += ez_now_ns() - t0;
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

void ez_search_free(ez_search *s)
{
    if (s) {
        s->ops->release(s);
        PyMem_RawFree(s->keys);
        PyMem_RawFree(s->table);
        PyMem_RawFree(s->frames);
        PyMem_RawFree(s->pool);
        PyMem_RawFree(s);
    }
}

/* Set up the common half of a search an engine's *_search_new has
 * allocated, its random order drawing from `seed`; 0 on allocation
 * failure.  `counters` stays owned by the caller and is written until
 * ez_search_free. */
static int ez_search_init(ez_search *s, const ez_net *net,
                          const ez_ops *ops, int32_t options,
                          uint64_t seed, int64_t max_states,
                          ez_counters *counters)
{
    memset(counters, 0, sizeof(ez_counters));
    s->net = net;
    s->ops = ops;
    s->c = counters;
    s->options = options;
    s->phase = EZ_PH_ROOT;
    s->max_states = max_states;
    s->draw = seed;
    s->table_cap = 1024;
    s->table_shift = 64 - 10;
    s->table = (uint32_t *)PyMem_RawCalloc(s->table_cap, sizeof(uint32_t));
    return s->table != NULL;
}

/* Tag the root, which the engine has built as the child, visited: the
 * search, or NULL (and the search freed) on allocation failure.  The
 * caller has already checked the root against the deadline and final
 * predicates. */
static ez_search *ez_search_start(ez_search *s, uint64_t key)
{
    if (ez_visit(s, s->ops, key) != 0) {
        ez_search_free(s);
        return NULL;
    }
    s->c->visited = 1;
    return s;
}

EZ_INLINE int32_t ez_run(ez_search *s, const ez_ops *ops)
{
    const ez_net *net = s->net;
    ez_counters *c = s->c;
    const uint8_t *flags = net->flags;
    int32_t timed = s->options & EZ_O_TIMED;
    int32_t t = 0, q = 0, status, i;
    ez_frame *f;

    switch (s->phase) {
    case EZ_PH_ROOT:
        if (ez_push(s, ops, 0, 0, -1, 0) < 0)
            goto nomem;
        s->phase = EZ_PH_LOOP;
        break;
    case EZ_PH_LOOP:
        break;
    case EZ_PH_STEP:
        f = &s->frames[s->n_frames - 1];
        t = s->pend_t;
        q = s->pend_q;
        s->phase = EZ_PH_LOOP;
        goto step;
    default:
        return EZ_S_DONE;
    }

    for (;;) {
        uint64_t key;
        int64_t now, t0 = 0;

        if (s->n_frames == 0) {
            s->phase = EZ_PH_OVER;
            return EZ_S_DONE;
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
        if (!(c->generated & EZ_POLL_MASK)) {
            c->depth = (int64_t)s->n_frames;
            s->pend_t = t;
            s->pend_q = q;
            s->phase = EZ_PH_STEP;
            return EZ_S_POLL;
        }
    step:
        if (timed)
            t0 = ez_now_ns();
        status = ops->fire(s, f->state, t, q, &key);
        if (timed) {
            c->succ_ns += ez_now_ns() - t0;
            c->succ_calls++;
        }
        if (status == EZ_DEAD) {
            /* the scheduler prunes a None successor */
            c->prunes++;
            continue;
        }
        if (status) {
            c->fault = t;
            s->phase = EZ_PH_OVER;
            return status;
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
        status = ez_visit(s, ops, key);
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
                s->phase = EZ_PH_OVER;
                return EZ_S_FEASIBLE;
            }
        }
        if (c->visited >= s->max_states) {
            s->phase = EZ_PH_OVER;
            return EZ_S_BUDGET;
        }
        if (ez_push(s, ops, (uint32_t)(s->n_states - 1), now, t, q) < 0)
            goto nomem;
    }

nomem:
    s->phase = EZ_PH_OVER;
    return EZ_S_NOMEM;
}

int32_t ez_search_run(ez_search *s)
{
    return s->ops->run(s);
}

/* After FEASIBLE: the accepting path as counters->pending
 * (transition, delay, absolute time) triples in firing order. */
void ez_search_path(const ez_search *s, int64_t *out)
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

/* ------------------------------------------------------------------
 * The reference replay: Definition 3.1 as repro.tpn.state.StateEngine
 * .fire states it, deliberately naive — nothing of the search's
 * incremental steps.  Every firing checks enabledness and
 * DLB <= q <= min DUB over a full scan of T, then rebuilds every clock
 * from the presets under the reset policy.
 *
 * `steps` holds n (transition, delay, absolute time) triples; a
 * transition outside 0..T-1 names none.  EZ_R_ACCEPT: a legal run that
 * reaches the final marking.  EZ_R_REJECT: not one (the Python replay
 * then says why).  EZ_R_DEFER: beyond what the replay represents (a
 * place over the uint16 token range, a time over 2^62) or out of
 * memory; the Python replay decides alone.
 * ------------------------------------------------------------------ */
#define EZ_R_ACCEPT 0
#define EZ_R_REJECT 1
#define EZ_R_DEFER 2
#define EZ_R_MAX_TIME ((int64_t)1 << 62)

int32_t ez_replay(const ez_net *net, const uint16_t *m0,
                  int32_t intermediate, const int64_t *steps, int32_t n)
{
    size_t places = net->P ? (size_t)net->P : 1;
    size_t trans = net->T ? (size_t)net->T : 1;
    uint16_t *mark = (uint16_t *)PyMem_RawMalloc(places * sizeof(uint16_t));
    uint16_t *inter = (uint16_t *)PyMem_RawMalloc(places * sizeof(uint16_t));
    /* clocks over all of T, -1 = disabled, as in StateEngine */
    int64_t *clock = (int64_t *)PyMem_RawMalloc(trans * sizeof(int64_t));
    int64_t *next = (int64_t *)PyMem_RawMalloc(trans * sizeof(int64_t));
    int64_t now = 0;
    int32_t status = EZ_R_REJECT, k, u, i;

    if (!mark || !inter || !clock || !next) {
        status = EZ_R_DEFER;
        goto out;
    }
    memcpy(mark, m0, (size_t)net->P * sizeof(uint16_t));
    for (u = 0; u < net->T; u++)
        clock[u] = ez_enabled(net, mark, u) ? 0 : -1;

    for (k = 0; k < n; k++) {
        int64_t q = steps[3 * k + 1], dlb, ceiling = 0, *swap;
        int bounded = 0;
        int32_t t;
        if (steps[3 * k] < 0 || steps[3 * k] >= net->T)
            goto out; /* no such transition */
        t = (int32_t)steps[3 * k];
        if (clock[t] < 0)
            goto out; /* firing a disabled transition */
        dlb = (int64_t)net->eft[t] - clock[t];
        if (dlb < 0)
            dlb = 0;
        if (q < dlb)
            goto out; /* delay below DLB */
        for (u = 0; u < net->T; u++) {
            int64_t dub;
            if (clock[u] < 0 || net->lft[u] < 0)
                continue;
            dub = (int64_t)net->lft[u] - clock[u];
            if (!bounded || dub < ceiling) {
                ceiling = dub;
                bounded = 1;
            }
        }
        if (bounded && q > ceiling)
            goto out; /* delay beyond min DUB (strong semantics) */
        if (q > EZ_R_MAX_TIME - now) {
            status = EZ_R_DEFER;
            goto out;
        }

        if (intermediate)
            ez_inter(net, mark, t, inter);
        for (i = net->delta_off[t]; i < net->delta_off[t + 1]; i++) {
            int32_t p = net->delta_place[i];
            int32_t v = (int32_t)mark[p] + net->delta_d[i];
            if (v > 0xFFFF) {
                status = EZ_R_DEFER;
                goto out;
            }
            mark[p] = (uint16_t)v;
        }
        for (u = 0; u < net->T; u++) {
            if (!ez_enabled(net, mark, u))
                next[u] = -1;
            else if (u == t)
                next[u] = 0;
            else if (clock[u] >= 0 &&
                     (!intermediate || ez_enabled(net, inter, u)))
                next[u] = clock[u] + q; /* persistent */
            else
                next[u] = 0; /* newly enabled */
        }
        swap = clock;
        clock = next;
        next = swap;
        now += q;
        if (now != steps[3 * k + 2])
            goto out; /* timestamp mismatch */
    }
    for (i = 0; i < net->n_final; i++) {
        if (mark[net->final_place[i]] != net->final_req[i])
            goto out; /* the final marking is not reached */
    }
    status = EZ_R_ACCEPT;

out:
    PyMem_RawFree(mark);
    PyMem_RawFree(inter);
    PyMem_RawFree(clock);
    PyMem_RawFree(next);
    return status;
}
"""


class NativeCore:
    """The one lazily built, per-process cached cffi extension."""

    def __init__(self):
        #: last build/import failure, for diagnostics
        self.load_error: Exception | None = None
        self._loaded: tuple[object | None] | None = None

    @staticmethod
    def unit() -> tuple[str, str]:
        """``(cdef, source)`` of the whole translation unit: this
        module's part, then each engine module's fragment (read when
        called, so the digest always covers the current text)."""
        engines = [importlib.import_module(m) for m in ENGINE_MODULES]
        return (
            CDEF + "".join(m.CDEF for m in engines),
            SOURCE + "".join(m.SOURCE for m in engines),
        )

    def digest(self) -> str:
        """64-bit BLAKE2b of the unit, from the interpreter's own
        ``_blake2``: ``hashlib`` would load OpenSSL in every process
        only to name the cache directory."""
        cdef, source = self.unit()
        payload = (cdef + source).encode("utf-8")
        return blake2b(payload, digest_size=8).hexdigest()

    def _cache_dirs(self) -> list[str]:
        """Candidate build directories, most preferred first."""
        here = os.path.dirname(os.path.abspath(__file__))
        tag = (
            f"{self.digest()}-py{sys.version_info[0]}"
            f"{sys.version_info[1]}"
        )
        dirs = [os.path.join(here, BUILD_DIR, tag)]
        override = os.environ.get(CACHE_ENV)
        if override:
            dirs.insert(0, os.path.join(override, tag))
        uid = os.getuid() if hasattr(os, "getuid") else 0
        dirs.append(
            os.path.join(tempfile.gettempdir(), f"{TEMP_PREFIX}-{uid}", tag)
        )
        return dirs

    def _find_built(self) -> str | None:
        for cache in self._cache_dirs():
            if not os.path.isdir(cache):
                continue
            for entry in sorted(os.listdir(cache)):
                if entry.startswith(MODULE_NAME) and entry.endswith(".so"):
                    return os.path.join(cache, entry)
        return None

    def build(self, verbose: bool = False) -> str:
        """Compile the core into the first writable cache dir; returns
        the shared-object path.  Raises on any failure (callers that
        want the graceful path go through :meth:`load`)."""
        existing = self._find_built()
        if existing:
            return existing
        from cffi import FFI

        cdef, source = self.unit()
        last_error: Exception | None = None
        for cache in self._cache_dirs():
            try:
                os.makedirs(cache, exist_ok=True)
                ffi = FFI()
                ffi.cdef(cdef)
                ffi.set_source(MODULE_NAME, source)
                # compile beside the target, so publishing it is one
                # rename on one filesystem: no reader sees half a file
                with tempfile.TemporaryDirectory(
                    prefix=".build-", dir=cache
                ) as tmp:
                    so_path = ffi.compile(tmpdir=tmp, verbose=verbose)
                    target = os.path.join(cache, os.path.basename(so_path))
                    os.replace(so_path, target)
                return target
            except Exception as exc:  # try the next candidate dir
                last_error = exc
        raise RuntimeError(
            f"could not build the native core: {last_error}"
        ) from last_error

    def native_module(self):
        """The compiled extension module (``.ffi`` / ``.lib``), or
        ``None``.

        Build failures are recorded on :attr:`load_error` and never
        raised; the result is cached per process.  The ``EZRT_PURE``
        gate is *not* applied here — :meth:`load` checks it per call.
        """
        if self._loaded is not None:
            return self._loaded[0]
        try:
            path = self._find_built() or self.build()
            spec = importlib.util.spec_from_file_location(MODULE_NAME, path)
            if spec is None or spec.loader is None:
                raise ImportError(f"cannot load {path}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._loaded = (module,)
        except Exception as exc:
            self.load_error = exc
            self._loaded = (None,)
        return self._loaded[0]

    def load(self):
        """The compiled module, or ``None`` (the spec fallback).

        ``None`` when ``EZRT_PURE=1`` is set or the build/import failed.
        """
        if os.environ.get(PURE_ENV) == "1":
            return None
        return self.native_module()

    def available(self) -> bool:
        """Whether the compiled core is usable right now."""
        return self.load() is not None


#: The process's one core; the engine modules alias its methods.
CORE = NativeCore()


def core_for(net):
    """The compiled module when it can run ``net``, else ``None``.

    ``None`` when the core is off (``EZRT_PURE=1``, no cffi, a failed
    build) or the net has no places or no transitions (the packed
    buffers and ``ez_net`` need at least one of each).
    """
    module = CORE.load()
    if module is None or not (net.num_transitions and net.num_places):
        return None
    return module


class NativeNet:
    """Per-net handle on the compiled core: the net packed into the
    flat CSR arrays of ``ez_net_new``, kept alive for the net
    pointer's lifetime.  Each engine's handle extends it with its own
    output buffers and per-step calls."""

    __slots__ = ("ffi", "lib", "net_ptr", "_keepalive")

    def __init__(self, module, net):
        ffi = module.ffi
        lib = module.lib
        self.ffi = ffi
        self.lib = lib

        def csr(rows, pair_index):
            off = array("i", [0])
            flat_a = array("i")
            flat_b = array("i") if pair_index else None
            for row in rows:
                if pair_index:
                    for a, b in row:
                        flat_a.append(a)
                        flat_b.append(b)
                else:
                    for a in row:
                        flat_a.append(a)
                off.append(len(flat_a))
            return off, flat_a, flat_b

        pre_off, pre_place, pre_w = csr(net.pre, True)
        d_off, d_place, d_d = csr(net.delta, True)
        aff_off, aff_t, _ = csr(net.affected, False)
        pc_off, pc_t, _ = csr(
            [sorted(s) for s in net.post_conflicts], False
        )
        eft = array("i", net.eft)
        lft = array(
            "i", [-1 if b == INF else int(b) for b in net.lft]
        )
        prio = array("i", net.priority)
        flags = bytearray(net.num_transitions)
        for t in range(net.num_transitions):
            flags[t] = (
                (1 if net.immediate[t] else 0)
                | (2 if t in net.miss_transitions else 0)
                | (4 if net.conflict_free[t] else 0)
                | (8 if net.touches_miss[t] else 0)
                | (16 if net.touches_final[t] else 0)
            )
        # the search driver's marking predicates and min-laxity
        # timers; one padding word keeps every buffer non-empty
        miss_place = array("i", net.miss_places or (0,))
        final_place = array(
            "i", [p for p, _req in net.final_constraints] or [0]
        )
        final_req = array(
            "i", [req for _p, req in net.final_constraints] or [0]
        )
        timer = array("i", net.deadline_timer or (0,))

        def ptr(a):
            return ffi.from_buffer("int32_t[]", a)

        # the cffi buffer views (and the arrays they view) must stay
        # alive as long as the C net reads them
        self._keepalive = [
            pre_off, pre_place, pre_w, d_off, d_place, d_d,
            aff_off, aff_t, pc_off, pc_t, eft, lft, prio, flags,
            miss_place, final_place, final_req, timer,
        ]
        buffers = [
            ptr(pre_off), ptr(pre_place), ptr(pre_w),
            ptr(d_off), ptr(d_place), ptr(d_d),
            ptr(aff_off), ptr(aff_t), ptr(pc_off), ptr(pc_t),
            ptr(eft), ptr(lft), ptr(prio),
            ffi.from_buffer("uint8_t[]", flags),
            len(net.miss_places), ptr(miss_place),
            len(net.final_constraints), ptr(final_place), ptr(final_req),
            ptr(timer),
        ]
        self._keepalive.extend(buffers)
        raw = lib.ez_net_new(
            net.num_places, net.num_transitions, *buffers
        )
        if raw == ffi.NULL:
            raise MemoryError("ez_net_new failed")
        self.net_ptr = ffi.gc(raw, lib.ez_net_free)


#: ``ez_replay`` statuses.
_REPLAY_ACCEPT = 0
_REPLAY_REJECT = 1


def replay(
    net, intermediate: bool, schedule, packed: NativeNet | None = None
) -> bool | None:
    """Replay ``schedule`` through Definition 3.1 in the compiled core.

    ``True`` when its ``(transition name, delay, absolute time)``
    triples are a legal run of ``net`` from ``m0`` to the final
    marking, ``False`` when they are not, and ``None`` when the core is
    not live or the schedule lies outside what ``ez_replay`` represents
    (the Python replay then decides alone).  An unknown name is a
    rejection.  ``packed`` is ``net``'s :class:`NativeNet` when the
    caller already holds one; otherwise the replay packs its own.
    """
    module = None
    if packed is None:
        module = core_for(net)
        if module is None:
            return None
    index = net.transition_index
    try:
        m0 = array("H", net.m0)
        steps = array(
            "q",
            [
                v
                for name, delay, at in schedule
                for v in (index.get(name, -1), delay, at)
            ],
        )
        if packed is None:
            packed = NativeNet(module, net)
    except (OverflowError, TypeError):
        return None
    ffi = packed.ffi
    status = packed.lib.ez_replay(
        packed.net_ptr,
        ffi.from_buffer("uint16_t[]", m0),
        1 if intermediate else 0,
        ffi.from_buffer("int64_t[]", steps) if steps else ffi.NULL,
        len(steps) // 3,
    )
    if status == _REPLAY_ACCEPT:
        return True
    if status == _REPLAY_REJECT:
        return False
    return None


#: :meth:`NativeSearch.run` statuses (the driver's ``EZ_S_*``).
SEARCH_DONE = 0
SEARCH_POLL = 1
SEARCH_FEASIBLE = 3
SEARCH_BUDGET = 4
SEARCH_TOKENS = 5
SEARCH_CLOCK = 6
SEARCH_NOMEM = 7

# option bits of the engines' ``*_search_new`` (``EZ_O_*``; the kernel
# adds its delay-mode bits 8 and 16)
_OPT_INTERMEDIATE = 1
_OPT_STRICT = 2
_OPT_PARTIAL_ORDER = 4
_OPT_RANDOM = 32
_OPT_TIMED = 64
_OPT_LATEST = 128
_OPT_LAXITY = 256

#: The driver's draw words are 64-bit: seeds are taken mod 2**64.
SEED_MASK = (1 << 64) - 1

#: The option bit of each search policy (the driver orders them all).
_POLICY_OPTIONS = {
    "earliest": 0,
    "latest": _OPT_LATEST,
    "random": _OPT_RANDOM,
    "min-laxity": _OPT_LAXITY,
}


def search_options(
    intermediate: bool,
    strict: bool,
    partial_order: bool,
    policy: str,
    timed: bool,
) -> int:
    """The option word of a driver search under ``policy``."""
    return (
        (_OPT_INTERMEDIATE if intermediate else 0)
        | (_OPT_STRICT if strict else 0)
        | (_OPT_PARTIAL_ORDER if partial_order else 0)
        | _POLICY_OPTIONS[policy]
        | (_OPT_TIMED if timed else 0)
    )


class NativeSearch:
    """One resumable depth-first search in the compiled core.

    The ``ez_search_*`` driver runs
    :class:`repro.scheduler.dfs.PreRuntimeScheduler`'s loop over a state store
    and visited table it owns; :meth:`run` advances it to its next stop
    and returns the status:

    * :data:`SEARCH_POLL` — the 1024-expansion poll (resume to go on);
    * :data:`SEARCH_FEASIBLE` — the final marking is reached
      (:meth:`path`);
    * :data:`SEARCH_BUDGET` — ``max_states`` states are tagged;
    * :data:`SEARCH_DONE` — the space is exhausted.

    Packed-cap overflows go to ``fault(status, transition)``, which
    raises the engine's :class:`~repro.errors.SchedulingError`.
    ``counters`` is the live ``ez_counters`` struct (the scheduler's
    counters plus span timings and the visited-state bytes).  The
    driver's memory is released by :meth:`close`, or at collection.
    """

    __slots__ = ("counters", "_label", "_fault", "_core", "_ffi", "_lib", "_ptr")

    def __init__(self, core, new, args, label: str, fault):
        """Start a search with ``new(core.net_ptr, *args, counters)``,
        an engine's ``*_search_new``; ``core`` is the engine's
        :class:`NativeNet`."""
        ffi = core.ffi
        self.counters = ffi.new("ez_counters *")
        raw = new(core.net_ptr, *args, self.counters)
        if raw == ffi.NULL:
            raise MemoryError(f"{label} search driver: out of memory")
        self._label = label
        self._fault = fault
        self._core = core  # the C search reads the core's net
        self._ffi = ffi
        self._lib = core.lib
        self._ptr = ffi.gc(raw, core.lib.ez_search_free)

    def run(self) -> int:
        status = self._lib.ez_search_run(self._ptr)
        if status >= SEARCH_TOKENS:
            if status == SEARCH_NOMEM:
                raise MemoryError(
                    f"{self._label} search driver: out of memory"
                )
            self._fault(status, self.counters.fault)
        return status

    def path(self) -> list[tuple[int, int, int]]:
        """The accepting path as ``(transition, delay, absolute time)``
        triples (after :data:`SEARCH_FEASIBLE`)."""
        n = self.counters.pending
        out = self._ffi.new("int64_t[]", 3 * n)
        self._lib.ez_search_path(self._ptr, out)
        flat = self._ffi.unpack(out, 3 * n)
        return list(zip(flat[0::3], flat[1::3], flat[2::3]))

    def close(self) -> None:
        """Free the store, table and stack now (idempotent)."""
        if self._ptr is not None:
            self._ffi.release(self._ptr)
            self._ptr = None


if __name__ == "__main__":  # pragma: no cover - CI eager build
    print(CORE.build(verbose=True))
