/* repro.fastpath._core -- compiled execution backend for the engine.
 *
 * Three entry points, each a C mirror of a documented pure-Python hot
 * loop (the Python source is normative; this file must replicate it
 * event-for-event so the bit-identical schedule gates in
 * tools/bench_*.py hold):
 *
 *   run(sim, until=None)
 *       Simulator.run / Simulator._run_until over the heap backend.
 *       Same dispatch, same stale-entry skip, same exact budget check,
 *       same inline handling of exact-class Timeout/SimEvent and the
 *       (event, value, stagger) delayed-fire payload.  Falls back to
 *       Python calls (sim._schedule, awaited.add_waiter, ev._fire) for
 *       every subclassed or unusual awaitable, with the simulator's
 *       authoritative state synchronized around each call.
 *
 *   batch_expand(tree, delta, size, local, limit, thresh)
 *       MaterializedTree.batch_expand: the DFS inner loop as range
 *       scans of the tree's preorder arrays, read in place.
 *
 *   LockPhase(spec)
 *       A fused working-phase coroutine for LockBasedAlgorithm: the
 *       visit / release / reacquire / barrier-reset cycle of
 *       working_phase's fault-free inlined body, executed as a C state
 *       machine instead of a generator.  A worker process yields the
 *       LockPhase object as a sentinel; the run loop drives the phase
 *       through the identical sequence of heap pushes (same times,
 *       same sequence numbers, same event count) and resumes the
 *       worker generator synchronously when the phase completes.
 *
 * State synchronization contract: the Simulator instance dict stays
 * authoritative.  Before any Python call that might observe or mutate
 * engine state, `now` and `_seq` are written back; after any Python
 * call that might schedule, `_seq` is reloaded.  `events_processed`
 * is written on every exit path (mirroring the pure loop's finally).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* configured state                                                   */
/* ------------------------------------------------------------------ */

static PyTypeObject *TimeoutType;
static PyTypeObject *SimEventType;
static PyTypeObject *ProcessType;
static PyObject *SimulationError;
static PyObject *Cancelled;

/* interned attribute/dict keys */
static PyObject *s_now, *s_seq, *s_events_processed, *s_live_processes,
    *s_heap, *s_max_events, *s_limit_error, *s_succeed, *s_schedule,
    *s_add_waiter, *s_fire_m, *s_nodes_visited, *s_reacquires,
    *s_releases, *s_cancels, *s_waiters_key, *s_probes;

/* slot offsets (T_OBJECT_EX members of the configured classes) */
static Py_ssize_t off_t_delay, off_t_value;
static Py_ssize_t off_e_fired, off_e_scheduled, off_e_value, off_e_waiters;
static Py_ssize_t off_p_body, off_p_done, off_p_alive, off_p_name;
static Py_ssize_t off_f_locked, off_f_queue, off_f_acq, off_f_cacq,
    off_f_busy, off_f_acqat;
static Py_ssize_t off_st_pushes, off_st_pops, off_st_released,
    off_st_reacquired;
static Py_ssize_t off_w_value, off_w_writes;

static int configured = 0;

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

/* Replace a slot's object (slot may be NULL for an unset T_OBJECT_EX). */
static void
slot_store(PyObject *o, Py_ssize_t off, PyObject *v /* new ref consumed */)
{
    PyObject *old = SLOT(o, off);
    SLOT(o, off) = v;
    Py_XDECREF(old);
}

static Py_ssize_t
resolve_slot(PyObject *cls, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    Py_ssize_t off = -1;
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
        if (m != NULL && m->type == T_OBJECT_EX)
            off = m->offset;
    }
    Py_DECREF(descr);
    if (off < 0)
        PyErr_Format(PyExc_TypeError,
                     "fastpath: cannot resolve slot %s on %R", name, cls);
    return off;
}

/* -- integer slot/dict helpers ------------------------------------- */

static int
slot_add_long(PyObject *o, Py_ssize_t off, long long delta)
{
    PyObject *cur = SLOT(o, off);
    long long v;
    PyObject *nv;
    if (cur == NULL || !PyLong_CheckExact(cur)) {
        PyErr_SetString(PyExc_TypeError, "fastpath: non-int counter slot");
        return -1;
    }
    v = PyLong_AsLongLong(cur);
    if (v == -1 && PyErr_Occurred())
        return -1;
    nv = PyLong_FromLongLong(v + delta);
    if (nv == NULL)
        return -1;
    slot_store(o, off, nv);
    return 0;
}

static int
slot_add_double(PyObject *o, Py_ssize_t off, double delta)
{
    PyObject *cur = SLOT(o, off);
    double v;
    PyObject *nv;
    if (cur == NULL)
        { PyErr_SetString(PyExc_TypeError, "fastpath: unset float slot");
          return -1; }
    v = PyFloat_AsDouble(cur);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    nv = PyFloat_FromDouble(v + delta);
    if (nv == NULL)
        return -1;
    slot_store(o, off, nv);
    return 0;
}

static int
dict_add_long(PyObject *d, PyObject *key, long long delta)
{
    PyObject *cur = PyDict_GetItemWithError(d, key);
    long long v;
    PyObject *nv;
    int r;
    if (cur == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_KeyError, "fastpath: missing key %R", key);
        return -1;
    }
    v = PyLong_AsLongLong(cur);
    if (v == -1 && PyErr_Occurred())
        return -1;
    nv = PyLong_FromLongLong(v + delta);
    if (nv == NULL)
        return -1;
    r = PyDict_SetItem(d, key, nv);
    Py_DECREF(nv);
    return r;
}

/* ------------------------------------------------------------------ */
/* heap primitives over sim._heap (a plain list of 4-tuples)          */
/* ------------------------------------------------------------------ */

/* Strict less-than matching Python tuple comparison for heap items.
 * Items are (time, seq, proc, value): times are floats, seq ints and
 * unique, so comparison always resolves within the first two fields on
 * canonical runs; anything unusual falls back to rich comparison. */
static int
item_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
            && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0);
        PyObject *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double da = PyFloat_AS_DOUBLE(ta), db = PyFloat_AS_DOUBLE(tb);
            if (da != db)
                return da < db;
            PyObject *sa = PyTuple_GET_ITEM(a, 1);
            PyObject *sb = PyTuple_GET_ITEM(b, 1);
            if (PyLong_CheckExact(sa) && PyLong_CheckExact(sb)) {
                int overflow_a, overflow_b;
                long long la = PyLong_AsLongLongAndOverflow(sa, &overflow_a);
                long long lb = PyLong_AsLongLongAndOverflow(sb, &overflow_b);
                if (!overflow_a && !overflow_b
                        && !(la == -1 && PyErr_Occurred()))
                    return la < lb;
                PyErr_Clear();
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heappush: list takes its own reference; caller keeps its own. */
static int
heap_push_item(PyObject *heap, PyObject *item)
{
    Py_ssize_t pos;
    if (PyList_Append(heap, item) < 0)
        return -1;
    pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        PyObject *pi = PyList_GET_ITEM(heap, parent);
        PyObject *ci = PyList_GET_ITEM(heap, pos);
        int lt = item_lt(ci, pi);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        PyList_SET_ITEM(heap, parent, ci);
        PyList_SET_ITEM(heap, pos, pi);
        pos = parent;
    }
    return 0;
}

/* heappop: returns a new reference; heap must be non-empty. */
static PyObject *
heap_pop_item(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    PyObject *ret;
    Py_ssize_t pos, child;
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    n -= 1;
    if (n == 0)
        return last;
    /* Steal heap[0]'s reference as the result, seat `last` at the root
     * and sift it down. */
    ret = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    pos = 0;
    for (;;) {
        child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n) {
            int lt = item_lt(PyList_GET_ITEM(heap, child + 1),
                             PyList_GET_ITEM(heap, child));
            if (lt < 0)
                goto fail;
            if (lt)
                child += 1;
        }
        PyObject *ci = PyList_GET_ITEM(heap, child);
        PyObject *pi = PyList_GET_ITEM(heap, pos);
        int lt2 = item_lt(ci, pi);
        if (lt2 < 0)
            goto fail;
        if (!lt2)
            break;
        PyList_SET_ITEM(heap, pos, ci);
        PyList_SET_ITEM(heap, child, pi);
        pos = child;
    }
    return ret;
fail:
    Py_DECREF(ret);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* run context                                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *sim;      /* borrowed from the call args */
    PyObject *simdict;  /* strong: PyObject_GenericGetDict(sim)        */
    PyObject *heap;     /* strong: sim._heap                           */
    double now;
    long long seq;      /* C copy of sim._seq                          */
    int seq_dirty;      /* seq advanced in C, not yet written back     */
    long long nev;      /* C copy of sim.events_processed              */
    long long limit;    /* sim.max_events                              */
} RunCtx;

static int
rc_write_seq(RunCtx *rc)
{
    if (rc->seq_dirty) {
        PyObject *v = PyLong_FromLongLong(rc->seq);
        int r;
        if (v == NULL)
            return -1;
        r = PyDict_SetItem(rc->simdict, s_seq, v);
        Py_DECREF(v);
        if (r < 0)
            return -1;
        rc->seq_dirty = 0;
    }
    return 0;
}

static int
rc_reload_seq(RunCtx *rc)
{
    PyObject *v = PyDict_GetItemWithError(rc->simdict, s_seq);
    long long sq;
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError, "fastpath: sim._seq gone");
        return -1;
    }
    sq = PyLong_AsLongLong(v);
    if (sq == -1 && PyErr_Occurred())
        return -1;
    rc->seq = sq;
    rc->seq_dirty = 0;
    return 0;
}

/* Write sim.now = time_obj (borrowed). */
static int
rc_write_now(RunCtx *rc, PyObject *time_obj)
{
    return PyDict_SetItem(rc->simdict, s_now, time_obj);
}

/* Push (t, ++seq, proc, value) minting a fresh time float. */
static int
rc_push(RunCtx *rc, double t, PyObject *proc, PyObject *value)
{
    PyObject *item = PyTuple_New(4);
    PyObject *tf, *sq;
    int r;
    if (item == NULL)
        return -1;
    tf = PyFloat_FromDouble(t);
    rc->seq += 1;
    rc->seq_dirty = 1;
    sq = PyLong_FromLongLong(rc->seq);
    if (tf == NULL || sq == NULL) {
        Py_XDECREF(tf);
        Py_XDECREF(sq);
        Py_DECREF(item);
        return -1;
    }
    PyTuple_SET_ITEM(item, 0, tf);
    PyTuple_SET_ITEM(item, 1, sq);
    Py_INCREF(proc);
    PyTuple_SET_ITEM(item, 2, proc);
    if (value == NULL)
        value = Py_None;
    Py_INCREF(value);
    PyTuple_SET_ITEM(item, 3, value);
    r = heap_push_item(rc->heap, item);
    Py_DECREF(item);
    return r;
}

/* Push (time_obj, ++seq, proc, value) reusing an existing time float
 * (the pure loop would mint an equal float; heap order compares by
 * value, so reusing the object is invisible to the schedule). */
static int
rc_push_obj(RunCtx *rc, PyObject *time_obj, PyObject *proc, PyObject *value)
{
    PyObject *item = PyTuple_New(4);
    PyObject *sq;
    int r;
    if (item == NULL)
        return -1;
    rc->seq += 1;
    rc->seq_dirty = 1;
    sq = PyLong_FromLongLong(rc->seq);
    if (sq == NULL) {
        Py_DECREF(item);
        return -1;
    }
    Py_INCREF(time_obj);
    PyTuple_SET_ITEM(item, 0, time_obj);
    PyTuple_SET_ITEM(item, 1, sq);
    Py_INCREF(proc);
    PyTuple_SET_ITEM(item, 2, proc);
    if (value == NULL)
        value = Py_None;
    Py_INCREF(value);
    PyTuple_SET_ITEM(item, 3, value);
    r = heap_push_item(rc->heap, item);
    Py_DECREF(item);
    return r;
}

/* Raise sim._limit_error() with sim.now already set to `time_obj`
 * (the pure loop assigns self.now = time before the check). */
static int
rc_raise_limit(RunCtx *rc, PyObject *time_obj)
{
    PyObject *exc;
    if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
        return -1;
    exc = PyObject_CallMethodNoArgs(rc->sim, s_limit_error);
    if (exc == NULL)
        return -1;
    PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    Py_DECREF(exc);
    return -1;
}

/* ------------------------------------------------------------------ */
/* LockPhase                                                          */
/* ------------------------------------------------------------------ */

enum {
    PH_IDLE = 0,        /* not running (no worker bound)               */
    PH_AFTER_VISIT,     /* woke from the visit-cost timeout            */
    PH_LOCK_WAIT,       /* woke from the lock round-trip timeout       */
    PH_GRANTED,         /* woke holding the lock (zero-Timeout or ev)  */
    PH_UNLOCK_WAIT,     /* woke from the unlock reference timeout      */
    PH_RESET_WAIT       /* woke from the barrier-reset write timeout   */
};

enum { SUB_RELEASE = 0, SUB_REACQUIRE = 1 };

/* A MaterializedTree's preorder arrays: array('i') exports held for
 * the owner's lifetime (the arrays are never resized or rewritten). */
typedef struct {
    PyObject *tree;           /* names itself when a handle is bad     */
    Py_buffer delta, size;    /* tree.delta, tree.size                 */
} TreeView;

typedef struct {
    PyObject_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *sim;
    PyObject *local;          /* list: stack.local                     */
    PyObject *shared;         /* deque: stack.shared                   */
    PyObject *shared_append;  /* bound shared.append                   */
    PyObject *shared_pop;     /* bound shared.pop                      */
    PyObject *stack;          /* SplitStack (counter slots)            */
    PyObject *st_dict;        /* ThreadStats.__dict__                  */
    PyObject *wa;             /* SharedVar work_avail[rank]            */
    PyObject *fifo;           /* FifoLock                              */
    PyObject *queue;          /* deque: fifo._queue                    */
    PyObject *queue_append;   /* bound queue.append                    */
    PyObject *queue_popleft;  /* bound queue.popleft                   */
    PyObject *ev_name;        /* str: fifo._ev_name                    */
    PyObject *enter_cb;       /* callable(): phase-entry bookkeeping   */
    PyObject *exit_cb;        /* callable(): phase-exit bookkeeping    */
    TreeView tv;              /* the MaterializedTree's arrays         */
    PyObject *barrier_dict;   /* CancelableBarrier.__dict__ or NULL    */
    double reset_cost;        /* barrier-reset write cost (with hook)  */
    double home_occupancy;    /* barrier cancel stagger                */
    double lock_to;           /* lock round trip; < 0 means free       */
    double unlock_to;         /* unlock reference; < 0 means free      */
    double *vt;               /* visit cost per batch size [0..limit]  */
    long long chunk;
    long long thresh;
    long long limit;
    /* runtime */
    PyObject *worker;         /* the suspended Process, while running  */
    int state;
    int substate;
} LockPhaseObject;

static PyTypeObject LockPhase_Type;  /* forward */

/* ------------------------------------------------------------------ */
/* OwnerPhase: fused owner-only working phase (upc-distmem / mpi-ws)  */
/* ------------------------------------------------------------------ */

enum {
    OP_IDLE = 0,        /* not running (no worker bound)               */
    OP_AFTER_VISIT,     /* woke from the visit-cost timeout            */
    OP_SVC_LOOP,        /* bounced to the worker for request service   */
    OP_SVC_EXIT         /* bounced for the final racing-request deny   */
};

typedef struct {
    PyObject_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *sim;
    PyObject *local;          /* list: stack.local                     */
    PyObject *shared;         /* deque: stack.shared                   */
    PyObject *shared_append;  /* bound shared.append                   */
    PyObject *shared_pop;     /* bound shared.pop                      */
    PyObject *stack;          /* SplitStack (counter slots)            */
    PyObject *st_dict;        /* ThreadStats.__dict__                  */
    PyObject *wa;             /* SharedVar work_avail[rank]; NULL: mpi */
    PyObject *no_work;        /* sentinel poked into wa at phase exit  */
    PyObject *req_slot;       /* SharedVar request[rank]; NULL: mpi    */
    PyObject *poll;           /* bound iprobe(tags); NULL: distmem     */
    PyObject *pending;        /* list MsgWorld._pending[rank] or NULL  */
    PyObject *enter_cb;       /* callable(): phase-entry bookkeeping   */
    PyObject *exit_cb;        /* callable(): phase-exit bookkeeping    */
    TreeView tv;              /* the MaterializedTree's arrays         */
    double *vt;               /* visit cost per batch size [0..limit]  */
    long long chunk;
    long long thresh;
    long long limit;
    /* runtime */
    PyObject *worker;         /* the suspended Process, while running  */
    int state;
} OwnerPhaseObject;

static PyTypeObject OwnerPhase_Type;  /* forward */

/* SearchPhase: the polling victim-probe loop shared (modulo the
 * request-variable poll) by the lock-based and distmem search phases.
 * Probes, probe-cost accounting, and backoff run in C; every steal
 * attempt -- and, for distmem, every pending-request service -- is
 * bounced to the suspended worker generator, which runs the Python
 * try_steal/service_request protocol and re-yields the phase. */
enum {
    SP_IDLE = 0,        /* not running (no worker bound)               */
    SP_SVC_TOP,         /* bounced to service a request (round top)    */
    SP_PRE_STEAL,       /* woke from the pre-steal probe-cost timeout  */
    SP_POST_STEAL,      /* re-yielded after a failed steal attempt     */
    SP_END_COST,        /* woke from the end-of-round cost timeout     */
    SP_BACKOFF          /* woke from the between-rounds backoff        */
};

typedef struct {
    PyObject_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *sim;
    PyObject *st_dict;        /* ThreadStats.__dict__ (probes)         */
    PyObject *cycle;          /* callable -> list: shuffled probe order */
    PyObject *segments;       /* list of victim lists for the native   */
    PyObject *getrandbits;    /*   shuffle, + Random.getrandbits; NULL */
    PyObject *row;            /* list of floats: ref cost per rank     */
    PyObject *slots;          /* list of SharedVar: work_avail         */
    PyObject *req_slot;       /* SharedVar request[rank]; NULL: lock   */
    double backoff_min;
    double backoff_factor;
    double backoff_max;
    double slow;              /* ctx._slow compute-cost multiplier     */
    int persist;              /* persist_while_working                 */
    /* runtime */
    PyObject *victims;        /* current round's probe order (owned)   */
    Py_ssize_t idx;           /* next victim index in `victims`        */
    long long cur_victim;     /* victim across the pre-steal timeout   */
    double cost_acc;
    double backoff;
    long long probes_acc;     /* st.probes delta, flushed at yields    */
    int any_working;
    PyObject *worker;         /* the suspended Process, while running  */
    int state;
} SearchPhaseObject;

static PyTypeObject SearchPhase_Type;  /* forward */

/* IdlePhase: the mpi-ws idle loop's no-progress wait.  Between a full
 * Python idle iteration (message drain, token duties, REQUEST send)
 * and the next thing to do, the pure loop burns one ctx.compute
 * (backoff) event per empty poll.  During that wait the only state a
 * rank's idle loop can observe changing is its own mailbox -- token
 * and outstanding-request state mutate only inside the rank's own
 * iterations or on message arrival -- so the C loop schedules the
 * backoff timeouts and tests the MsgWorld._take_delivered fast path
 * (heap empty or head not yet arrived) inline, bouncing back to the
 * worker the moment a delivered message is visible. */
enum {
    IP_IDLE = 0,        /* not running (no worker bound)               */
    IP_WAIT             /* woke from a backoff timeout                 */
};

typedef struct {
    PyObject_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *sim;
    PyObject *pending;        /* list MsgWorld._pending[rank]          */
    double backoff_min;
    double backoff_factor;
    double backoff_max;
    double slow;              /* ctx._slow compute-cost multiplier     */
    /* runtime */
    double backoff;
    PyObject *worker;         /* the suspended Process, while running  */
    int state;
} IdlePhaseObject;

static PyTypeObject IdlePhase_Type;  /* forward */

static int dispatch_send(RunCtx *rc, PyObject *proc, PyObject *value,
                         PyObject *time_obj);

static void
tv_clear(TreeView *tv)
{
    PyBuffer_Release(&tv->delta);
    PyBuffer_Release(&tv->size);
    Py_CLEAR(tv->tree);
}

/* C mirror of MaterializedTree.batch_expand (minus its whole-subtree
 * shortcut: here the scan costs less than the test).  A stack entry
 * that is not a position of the arrays is refused by name, not read. */
static int
c_batch_expand(TreeView *tv, PyObject *local, long long limit,
               long long thresh, long long *out_n, long long *out_pushed)
{
    const int *delta = tv->delta.buf, *size = tv->size.buf;
    const Py_ssize_t n_nodes = tv->size.len / (Py_ssize_t)sizeof(int);
    long long n = 0, pushed = 0;
    Py_ssize_t cur = PyList_GET_SIZE(local);
    if (tv->delta.itemsize != sizeof(int) || tv->size.itemsize != sizeof(int)
            || tv->delta.len != tv->size.len) {
        PyErr_SetString(PyExc_TypeError,
                        "fastpath: tree arrays must be equal-length array('i')");
        return -1;
    }
    while (cur > 0 && n < limit) {
        const Py_ssize_t below = cur - 1;
        PyObject *node = PyList_GET_ITEM(local, below);
        Py_ssize_t a = PyLong_CheckExact(node) ? PyLong_AsSsize_t(node) : -1;
        Py_ssize_t span, v = 0, p, i;
        if (a < 0 || a >= n_nodes) {
            PyErr_Clear();  /* num_children() raises the named error */
            Py_XDECREF(PyObject_CallMethod(tv->tree, "num_children", "(O)",
                                           node));
            if (!PyErr_Occurred())
                PyErr_SetString(SimulationError, "fastpath: bad tree handle");
            return -1;
        }
        span = size[a] > limit - n ? (Py_ssize_t)(limit - n) : size[a];
        do {
            cur += delta[a + v++];
        } while (v < span && cur < thresh);
        n += v;
        pushed += cur - below - 1 + v;
        /* a makes way for the cur - below subtrees that tile the rest
         * of its range, each inserted under the one before it */
        if (PyList_SetSlice(local, below, below + 1, NULL) < 0)
            return -1;
        for (p = a + v, i = below; i < cur; i++, p += size[p]) {
            PyObject *h = PyLong_FromSsize_t(p);
            if (h == NULL || PyList_Insert(local, below, h) < 0) {
                Py_XDECREF(h);
                return -1;
            }
            Py_DECREF(h);
        }
        if (cur >= thresh)
            break;
    }
    *out_n = n;
    *out_pushed = pushed;
    return 0;
}

/* Drive the phase state machine from `entry` until it parks on a heap
 * push / event registration, or completes (resuming the worker). */
static int
phase_run(LockPhaseObject *ph, RunCtx *rc, PyObject *time_obj, int entry)
{
    switch (entry) {
    case PH_IDLE:        goto main_loop;
    case PH_AFTER_VISIT: goto release_check;
    case PH_LOCK_WAIT:   goto lock_grant;
    case PH_GRANTED:     goto granted;
    case PH_UNLOCK_WAIT: goto unlocked;
    case PH_RESET_WAIT:  goto reset_body;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

main_loop:
    if (PyList_GET_SIZE(ph->local) == 0) {
        Py_ssize_t shared_n = PyObject_Length(ph->shared);
        if (shared_n < 0)
            return -1;
        if (shared_n > 0) {
            ph->substate = SUB_REACQUIRE;
            goto lock_begin;
        }
        goto phase_exit;
    }
    /* visit: n, pushed = batch_expand(local, limit, thresh) */
    {
        long long n = 0, pushed = 0;
        if (c_batch_expand(&ph->tv, ph->local, ph->limit, ph->thresh,
                           &n, &pushed) < 0)
            return -1;
        if (slot_add_long(ph->stack, off_st_pops, n) < 0
                || slot_add_long(ph->stack, off_st_pushes, pushed) < 0
                || dict_add_long(ph->st_dict, s_nodes_visited, n) < 0)
            return -1;
        if (n > 0) {
            /* yield vt[n] */
            ph->state = PH_AFTER_VISIT;
            return rc_push(rc, rc->now + ph->vt[n], (PyObject *)ph, Py_None);
        }
        /* n == 0 implies the local region was empty, handled above;
         * unreachable, but fall through identically to the generator
         * (which skips the yield when n == 0). */
    }

release_check:
    if (PyList_GET_SIZE(ph->local) >= ph->thresh) {
        ph->substate = SUB_RELEASE;
        goto lock_begin;
    }
    goto main_loop;

lock_begin:
    if (ph->lock_to >= 0.0) {
        /* yield lock_to */
        ph->state = PH_LOCK_WAIT;
        return rc_push(rc, rc->now + ph->lock_to, (PyObject *)ph, Py_None);
    }
    /* FALLTHROUGH */
lock_grant:
    {
        PyObject *locked = SLOT(ph->fifo, off_f_locked);
        if (locked != Py_True) {
            /* uncontended: locked = True; acquisitions += 1;
             * _acquired_at = sim.now; yield _T0 */
            Py_INCREF(Py_True);
            slot_store(ph->fifo, off_f_locked, Py_True);
            if (slot_add_long(ph->fifo, off_f_acq, 1) < 0)
                return -1;
            Py_INCREF(time_obj);
            slot_store(ph->fifo, off_f_acqat, time_obj);
            ph->state = PH_GRANTED;
            return rc_push_obj(rc, time_obj, (PyObject *)ph, Py_None);
        }
        /* contended: ev = SimEvent(sim, name); queue.append(ev);
         * yield ev  (the phase itself registers as the waiter) */
        {
            PyObject *ev = PyObject_CallFunctionObjArgs(
                (PyObject *)SimEventType, ph->sim, ph->ev_name, NULL);
            PyObject *r, *waiters;
            if (ev == NULL)
                return -1;
            if (slot_add_long(ph->fifo, off_f_cacq, 1) < 0) {
                Py_DECREF(ev);
                return -1;
            }
            r = PyObject_CallOneArg(ph->queue_append, ev);
            if (r == NULL) {
                Py_DECREF(ev);
                return -1;
            }
            Py_DECREF(r);
            waiters = SLOT(ev, off_e_waiters);
            if (waiters == NULL || !PyList_CheckExact(waiters)
                    || PyList_Append(waiters, (PyObject *)ph) < 0) {
                if (!PyErr_Occurred())
                    PyErr_SetString(SimulationError,
                                    "fastpath: bad event waiter list");
                Py_DECREF(ev);
                return -1;
            }
            Py_DECREF(ev);
            ph->state = PH_GRANTED;
            return 0;  /* resumed when the holder's release fires us */
        }
    }

granted:
    if (ph->substate == SUB_RELEASE) {
        /* released = local[:chunk]; del local[:chunk];
         * shared.append(released); counters */
        PyObject *released = PyList_GetSlice(ph->local, 0, ph->chunk);
        PyObject *r;
        if (released == NULL)
            return -1;
        if (PyList_SetSlice(ph->local, 0, ph->chunk, NULL) < 0) {
            Py_DECREF(released);
            return -1;
        }
        r = PyObject_CallOneArg(ph->shared_append, released);
        Py_DECREF(released);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (slot_add_long(ph->stack, off_st_released, ph->chunk) < 0)
            return -1;
    } else {
        /* reacquire: re-check under the lock (a queued thief may have
         * emptied the shared region while we waited). */
        Py_ssize_t shared_n = PyObject_Length(ph->shared);
        if (shared_n < 0)
            return -1;
        if (shared_n > 0) {
            PyObject *got = PyObject_CallNoArgs(ph->shared_pop);
            Py_ssize_t ngot;
            if (got == NULL)
                return -1;
            if (!PyList_CheckExact(got)) {
                PyErr_SetString(PyExc_TypeError,
                                "fastpath: shared chunk must be a list");
                Py_DECREF(got);
                return -1;
            }
            ngot = PyList_GET_SIZE(got);
            if (PyList_SetSlice(ph->local, 0, 0, got) < 0) {
                Py_DECREF(got);
                return -1;
            }
            Py_DECREF(got);
            if (slot_add_long(ph->stack, off_st_reacquired, ngot) < 0
                    || dict_add_long(ph->st_dict, s_reacquires, 1) < 0)
                return -1;
        } else {
            goto after_move;  /* nothing moved: skip the wa write */
        }
    }
    /* wa.writes += 1; wa.value = len(shared)  (both branches) */
    {
        Py_ssize_t shared_n = PyObject_Length(ph->shared);
        PyObject *nv;
        if (shared_n < 0)
            return -1;
        if (slot_add_long(ph->wa, off_w_writes, 1) < 0)
            return -1;
        nv = PyLong_FromSsize_t(shared_n);
        if (nv == NULL)
            return -1;
        slot_store(ph->wa, off_w_value, nv);
    }
after_move:
    if (ph->unlock_to >= 0.0) {
        /* yield unlock_to */
        ph->state = PH_UNLOCK_WAIT;
        return rc_push(rc, rc->now + ph->unlock_to, (PyObject *)ph, Py_None);
    }
    /* FALLTHROUGH */
unlocked:
    {
        /* busy_time += sim.now - _acquired_at; hand off or unlock */
        PyObject *acqat = SLOT(ph->fifo, off_f_acqat);
        double at;
        Py_ssize_t qn;
        if (acqat == NULL)
            { PyErr_SetString(SimulationError, "fastpath: lock state");
              return -1; }
        at = PyFloat_AsDouble(acqat);
        if (at == -1.0 && PyErr_Occurred())
            return -1;
        if (slot_add_double(ph->fifo, off_f_busy, rc->now - at) < 0)
            return -1;
        qn = PyObject_Length(ph->queue);
        if (qn < 0)
            return -1;
        if (qn > 0) {
            /* direct hand-off: acquisitions += 1; _acquired_at = now;
             * queue.popleft().succeed() */
            PyObject *ev, *r;
            if (slot_add_long(ph->fifo, off_f_acq, 1) < 0)
                return -1;
            Py_INCREF(time_obj);
            slot_store(ph->fifo, off_f_acqat, time_obj);
            ev = PyObject_CallNoArgs(ph->queue_popleft);
            if (ev == NULL)
                return -1;
            if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0) {
                Py_DECREF(ev);
                return -1;
            }
            r = PyObject_CallMethodNoArgs(ev, s_succeed);
            Py_DECREF(ev);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            if (rc_reload_seq(rc) < 0)
                return -1;
        } else {
            Py_INCREF(Py_False);
            slot_store(ph->fifo, off_f_locked, Py_False);
        }
    }
    if (ph->substate == SUB_RELEASE) {
        /* st.releases += 1 (after the unlock, as in the generator) */
        if (dict_add_long(ph->st_dict, s_releases, 1) < 0)
            return -1;
        if (ph->barrier_dict != NULL)
            goto reset_begin;
        goto release_check;
    }
    goto main_loop;

reset_begin:
    if (ph->reset_cost > 0.0) {
        /* yield Timeout(cost): the remote cancellation-flag write */
        ph->state = PH_RESET_WAIT;
        return rc_push(rc, rc->now + ph->reset_cost, (PyObject *)ph, Py_None);
    }
    /* FALLTHROUGH */
reset_body:
    {
        /* barrier.cancels += 1; wake every waiter with a staggered
         * CANCELLED succeed; clear the waiter list. */
        PyObject *waiters;
        Py_ssize_t wn, i;
        if (dict_add_long(ph->barrier_dict, s_cancels, 1) < 0)
            return -1;
        waiters = PyDict_GetItemWithError(ph->barrier_dict, s_waiters_key);
        if (waiters == NULL || !PyList_CheckExact(waiters)) {
            if (!PyErr_Occurred())
                PyErr_SetString(SimulationError,
                                "fastpath: barrier waiter list");
            return -1;
        }
        wn = PyList_GET_SIZE(waiters);
        if (wn > 0) {
            if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
                return -1;
            for (i = 0; i < wn; i++) {
                PyObject *pair = PyList_GET_ITEM(waiters, i);
                PyObject *ev, *delay, *r;
                if (!PyTuple_CheckExact(pair)
                        || PyTuple_GET_SIZE(pair) != 2) {
                    PyErr_SetString(SimulationError,
                                    "fastpath: barrier waiter entry");
                    return -1;
                }
                ev = PyTuple_GET_ITEM(pair, 1);
                delay = PyFloat_FromDouble((double)i * ph->home_occupancy);
                if (delay == NULL)
                    return -1;
                /* ev.succeed(CANCELLED, delay=i * stagger) */
                r = PyObject_CallMethodObjArgs(ev, s_succeed, Cancelled,
                                               delay, NULL);
                Py_DECREF(delay);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            }
            if (rc_reload_seq(rc) < 0)
                return -1;
            if (PyList_SetSlice(waiters, 0, PyList_GET_SIZE(waiters),
                                NULL) < 0)
                return -1;
        }
        goto release_check;
    }

phase_exit:
    {
        PyObject *r, *worker;
        int rr;
        if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
            return -1;
        r = PyObject_CallNoArgs(ph->exit_cb);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (rc_reload_seq(rc) < 0)
            return -1;
        worker = ph->worker;
        ph->worker = NULL;
        ph->state = PH_IDLE;
        /* Resume the worker generator at its `yield phase` suspension
         * within this same dispatch -- exactly where the generator
         * version's `yield from working_phase(ctx)` falls through. */
        rr = dispatch_send(rc, worker, Py_None, time_obj);
        Py_DECREF(worker);
        return rr;
    }
}

/* -- OwnerPhase machinery ------------------------------------------- */

/* SharedVar.poke mirrors (fault-free): writes += 1, then value = v. */
static int
wa_poke(PyObject *wa, PyObject *value /* borrowed */)
{
    if (slot_add_long(wa, off_w_writes, 1) < 0)
        return -1;
    Py_INCREF(value);
    slot_store(wa, off_w_value, value);
    return 0;
}

static int
wa_poke_len(PyObject *wa, Py_ssize_t n)
{
    PyObject *nv;
    if (slot_add_long(wa, off_w_writes, 1) < 0)
        return -1;
    nv = PyLong_FromSsize_t(n);
    if (nv == NULL)
        return -1;
    slot_store(wa, off_w_value, nv);
    return 0;
}

/* Drive the owner-only working phase (no stack lock: upc-distmem and
 * mpi-ws Sect. 3.3.3 / 4) until it parks on a visit timeout, bounces a
 * pending request/message to the worker, or completes.  The worker's
 * `yield phase` receives None on completion and a non-None value (the
 * request marker or the probed message) on a bounce; the Python side
 * services it and re-yields the phase, which resumes mid-loop. */
static int
owner_run(OwnerPhaseObject *op, RunCtx *rc, PyObject *time_obj, int entry)
{
    switch (entry) {
    case OP_IDLE:        goto loop_top;
    case OP_AFTER_VISIT: goto release_loop;
    case OP_SVC_LOOP:
        if (op->poll != NULL)
            goto loop_top;      /* mpi: the poll loop re-probes        */
        goto stack_check;       /* distmem: fall through to the stack  */
    case OP_SVC_EXIT:    goto exit_done;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

loop_top:
    if (op->req_slot != NULL) {
        /* if req_slot.value is not None: bounce for service_request */
        PyObject *rv = SLOT(op->req_slot, off_w_value);
        if (rv == NULL) {
            PyErr_SetString(SimulationError, "fastpath: request slot unset");
            return -1;
        }
        if (rv != Py_None) {
            op->state = OP_SVC_LOOP;
            if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
                return -1;
            return dispatch_send(rc, op->worker, Py_True, time_obj);
        }
    }
    if (op->poll != NULL) {
        /* `while (msg := iprobe(tags)) is not None`, with the
         * MsgWorld._take_delivered fast path (mailbox empty or head
         * not yet arrived) tested inline so the overwhelmingly common
         * empty poll costs no Python call. */
        if (PyList_GET_SIZE(op->pending) > 0) {
            PyObject *head = PyList_GET_ITEM(op->pending, 0);
            PyObject *arr;
            double at;
            if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) < 1) {
                PyErr_SetString(SimulationError, "fastpath: bad mailbox");
                return -1;
            }
            arr = PyTuple_GET_ITEM(head, 0);
            at = PyFloat_AsDouble(arr);
            if (at == -1.0 && PyErr_Occurred())
                return -1;
            if (at <= rc->now) {
                PyObject *msg;
                int r;
                if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
                    return -1;
                msg = PyObject_CallNoArgs(op->poll);
                if (msg == NULL)
                    return -1;
                if (msg != Py_None) {
                    op->state = OP_SVC_LOOP;
                    r = dispatch_send(rc, op->worker, msg, time_obj);
                    Py_DECREF(msg);
                    return r;
                }
                Py_DECREF(msg);
            }
        }
    }
stack_check:
    if (PyList_GET_SIZE(op->local) == 0) {
        Py_ssize_t shared_n = PyObject_Length(op->shared);
        if (shared_n < 0)
            return -1;
        if (shared_n > 0) {
            /* owner-only reacquire, no lock (SplitStack counters) */
            PyObject *got = PyObject_CallNoArgs(op->shared_pop);
            Py_ssize_t ngot;
            if (got == NULL)
                return -1;
            if (!PyList_CheckExact(got)) {
                PyErr_SetString(PyExc_TypeError,
                                "fastpath: shared chunk must be a list");
                Py_DECREF(got);
                return -1;
            }
            ngot = PyList_GET_SIZE(got);
            if (PyList_SetSlice(op->local, 0, 0, got) < 0) {
                Py_DECREF(got);
                return -1;
            }
            Py_DECREF(got);
            if (slot_add_long(op->stack, off_st_reacquired, ngot) < 0)
                return -1;
            if (op->wa != NULL) {
                shared_n = PyObject_Length(op->shared);
                if (shared_n < 0 || wa_poke_len(op->wa, shared_n) < 0)
                    return -1;
            }
            if (dict_add_long(op->st_dict, s_reacquires, 1) < 0)
                return -1;
            goto loop_top;  /* `continue`: re-check requests first */
        }
        goto exit_begin;
    }
    /* visit: n, pushed = batch_expand(local, limit, thresh) */
    {
        long long n = 0, pushed = 0;
        if (c_batch_expand(&op->tv, op->local, op->limit, op->thresh,
                           &n, &pushed) < 0)
            return -1;
        if (slot_add_long(op->stack, off_st_pops, n) < 0
                || slot_add_long(op->stack, off_st_pushes, pushed) < 0
                || dict_add_long(op->st_dict, s_nodes_visited, n) < 0)
            return -1;
        if (n > 0) {
            /* yield vt[n] */
            op->state = OP_AFTER_VISIT;
            return rc_push(rc, rc->now + op->vt[n], (PyObject *)op, Py_None);
        }
        /* n == 0 implies the local region was empty, handled above;
         * fall through identically to the generator. */
    }

release_loop:
    while (PyList_GET_SIZE(op->local) >= op->thresh) {
        /* released = local[:chunk]; del local[:chunk];
         * shared.append(released); counters (no lock, no gate) */
        PyObject *released = PyList_GetSlice(op->local, 0, op->chunk);
        PyObject *r;
        if (released == NULL)
            return -1;
        if (PyList_SetSlice(op->local, 0, op->chunk, NULL) < 0) {
            Py_DECREF(released);
            return -1;
        }
        r = PyObject_CallOneArg(op->shared_append, released);
        Py_DECREF(released);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (slot_add_long(op->stack, off_st_released, op->chunk) < 0)
            return -1;
        if (op->wa != NULL) {
            Py_ssize_t shared_n = PyObject_Length(op->shared);
            if (shared_n < 0 || wa_poke_len(op->wa, shared_n) < 0)
                return -1;
        }
        if (dict_add_long(op->st_dict, s_releases, 1) < 0)
            return -1;
    }
    goto loop_top;

exit_begin:
    if (op->wa != NULL && wa_poke(op->wa, op->no_work) < 0)
        return -1;
    if (op->req_slot != NULL) {
        /* deny any request that raced our transition to idle */
        PyObject *rv = SLOT(op->req_slot, off_w_value);
        if (rv == NULL) {
            PyErr_SetString(SimulationError, "fastpath: request slot unset");
            return -1;
        }
        if (rv != Py_None) {
            op->state = OP_SVC_EXIT;
            if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
                return -1;
            return dispatch_send(rc, op->worker, Py_True, time_obj);
        }
    }
exit_done:
    {
        PyObject *r, *worker;
        int rr;
        if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
            return -1;
        r = PyObject_CallNoArgs(op->exit_cb);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (rc_reload_seq(rc) < 0)
            return -1;
        worker = op->worker;
        op->worker = NULL;
        op->state = OP_IDLE;
        rr = dispatch_send(rc, worker, Py_None, time_obj);
        Py_DECREF(worker);
        return rr;
    }
}

/* random.Random._randbelow_with_getrandbits, draw-for-draw: k =
 * n.bit_length() bits per attempt, rejecting r >= n.  Calling the
 * (C-implemented) bound getrandbits keeps the Mersenne Twister state
 * bit-identical to the pure path's draws.  n >= 1; returns -1 on
 * error (check PyErr_Occurred -- valid draws are never negative). */
static long
c_randbelow(PyObject *getrandbits, long n)
{
    long t = n, r;
    int k = 0;
    while (t > 0) {
        k++;
        t >>= 1;
    }
    for (;;) {
        PyObject *kk = PyLong_FromLong(k);
        PyObject *ro;
        if (kk == NULL)
            return -1;
        ro = PyObject_CallOneArg(getrandbits, kk);
        Py_DECREF(kk);
        if (ro == NULL)
            return -1;
        r = PyLong_AsLong(ro);
        Py_DECREF(ro);
        if (r == -1 && PyErr_Occurred())
            return -1;
        if (r < n)
            return r;
    }
}

/* random.Random.shuffle, draw-for-draw: Fisher-Yates from the top,
 * j = _randbelow(i + 1) per position. */
static int
c_shuffle(PyObject *list, PyObject *getrandbits)
{
    Py_ssize_t i;
    for (i = PyList_GET_SIZE(list) - 1; i >= 1; i--) {
        long j = c_randbelow(getrandbits, (long)i + 1);
        PyObject *a, *b;
        if (j < 0 && PyErr_Occurred())
            return -1;
        a = PyList_GET_ITEM(list, i);
        b = PyList_GET_ITEM(list, j);
        PyList_SET_ITEM(list, i, b);
        PyList_SET_ITEM(list, j, a);
    }
    return 0;
}

/* Flush the C-accumulated probe count into st.probes.  Called before
 * every yield/bounce/exit so Python observes the same counter values
 * at the same points as the pure generator. */
static int
sp_flush_probes(SearchPhaseObject *sp)
{
    if (sp->probes_acc != 0) {
        if (dict_add_long(sp->st_dict, s_probes, sp->probes_acc) < 0)
            return -1;
        sp->probes_acc = 0;
    }
    return 0;
}

/* Drive the polling search phase (lock-based Sect. 3.1 / distmem
 * Sect. 3.3.3) until it parks on a probe-cost or backoff timeout,
 * bounces a steal attempt (the victim's rank) or a pending request
 * (True) to the worker, or exhausts the search.  The worker's `yield
 * phase` receives None when the search gives up (return False); after
 * a *failed* steal it re-yields the phase, and after a successful one
 * it calls phase.abort() and returns True without re-yielding. */
static int
search_run(SearchPhaseObject *sp, RunCtx *rc, PyObject *time_obj, int entry)
{
    switch (entry) {
    case SP_IDLE:
        sp->backoff = sp->backoff_min;
        goto round_top;
    case SP_SVC_TOP:    goto round_start;
    case SP_PRE_STEAL:  goto steal_bounce;
    case SP_POST_STEAL:
        /* "the probe proceeds to the next victim" after a denial */
        sp->any_working = 1;
        goto probe_loop;
    case SP_END_COST:   goto round_end;
    case SP_BACKOFF:    goto round_top;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

round_top:
    if (sp->req_slot != NULL) {
        /* distmem: if req_slot.value is not None, bounce for service */
        PyObject *rv = SLOT(sp->req_slot, off_w_value);
        if (rv == NULL) {
            PyErr_SetString(SimulationError, "fastpath: request slot unset");
            return -1;
        }
        if (rv != Py_None) {
            sp->state = SP_SVC_TOP;
            if (sp_flush_probes(sp) < 0)
                return -1;
            if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
                return -1;
            return dispatch_send(rc, sp->worker, Py_True, time_obj);
        }
    }
round_start:
    if (sp->segments != NULL) {
        /* Native cycle(): copy each victim segment and Fisher-Yates it
         * in place, consuming the rank's Mersenne Twister exactly as
         * `shuffled(seg0) + shuffled(seg1) + ...` would.  getrandbits
         * cannot touch simulator state, so no now/seq sync is needed. */
        PyObject *vs = NULL;
        Py_ssize_t nseg = PyList_GET_SIZE(sp->segments), si;
        for (si = 0; si < nseg; si++) {
            PyObject *seg = PyList_GET_ITEM(sp->segments, si);
            PyObject *copy = PyList_GetSlice(seg, 0, PyList_GET_SIZE(seg));
            if (copy == NULL || c_shuffle(copy, sp->getrandbits) < 0) {
                Py_XDECREF(copy);
                Py_XDECREF(vs);
                return -1;
            }
            if (vs == NULL) {
                vs = copy;
            } else {
                Py_ssize_t at = PyList_GET_SIZE(vs);
                int bad = PyList_SetSlice(vs, at, at, copy) < 0;
                Py_DECREF(copy);
                if (bad) {
                    Py_DECREF(vs);
                    return -1;
                }
            }
        }
        if (vs == NULL && (vs = PyList_New(0)) == NULL)
            return -1;
        Py_XSETREF(sp->victims, vs);
    } else {
        /* victims = cycle(): one shuffled probe order, drawn from the
         * rank's deterministic RNG stream exactly as the generator's
         * `for victim in cycle()` would. */
        PyObject *vs;
        if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
            return -1;
        vs = PyObject_CallNoArgs(sp->cycle);
        if (vs == NULL)
            return -1;
        if (!PyList_CheckExact(vs)) {
            Py_DECREF(vs);
            PyErr_SetString(PyExc_TypeError,
                            "fastpath: probe cycle must return a list");
            return -1;
        }
        Py_XSETREF(sp->victims, vs);
        if (rc_reload_seq(rc) < 0)
            return -1;
    }
    sp->idx = 0;
    sp->cost_acc = 0.0;
    sp->any_working = 0;

probe_loop:
    while (sp->victims != NULL && sp->idx < PyList_GET_SIZE(sp->victims)) {
        PyObject *vobj = PyList_GET_ITEM(sp->victims, sp->idx);
        PyObject *slot, *aval;
        long long victim, avail;
        double c;
        victim = PyLong_AsLongLong(vobj);
        if (victim == -1 && PyErr_Occurred())
            return -1;
        sp->idx += 1;
        sp->probes_acc += 1;
        if (victim < 0 || victim >= PyList_GET_SIZE(sp->row)
                || victim >= PyList_GET_SIZE(sp->slots)) {
            PyErr_SetString(SimulationError,
                            "fastpath: probe victim out of range");
            return -1;
        }
        c = PyFloat_AsDouble(PyList_GET_ITEM(sp->row, victim));
        if (c == -1.0 && PyErr_Occurred())
            return -1;
        sp->cost_acc += c;
        slot = PyList_GET_ITEM(sp->slots, victim);
        aval = SLOT(slot, off_w_value);
        if (aval == NULL || !PyLong_CheckExact(aval)) {
            PyErr_SetString(SimulationError,
                            "fastpath: non-int work_avail value");
            return -1;
        }
        avail = PyLong_AsLongLong(aval);
        if (avail == -1 && PyErr_Occurred())
            return -1;
        if (avail == 0) {
            sp->any_working = 1;
        } else if (avail > 0) {
            sp->cur_victim = victim;
            if (sp_flush_probes(sp) < 0)
                return -1;
            if (sp->cost_acc > 0.0) {
                /* yield from ctx.compute(cost_acc) before the steal */
                double d = sp->cost_acc * sp->slow;
                sp->cost_acc = 0.0;
                if (d > 0.0) {
                    sp->state = SP_PRE_STEAL;
                    return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
                }
            }
            goto steal_bounce;
        }
    }
    if (sp_flush_probes(sp) < 0)
        return -1;
    if (sp->cost_acc > 0.0) {
        /* trailing yield from ctx.compute(cost_acc) */
        double d = sp->cost_acc * sp->slow;
        sp->cost_acc = 0.0;
        if (d > 0.0) {
            sp->state = SP_END_COST;
            return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
        }
    }

round_end:
    if (!sp->persist || !sp->any_working)
        goto exit_nowork;
    {
        /* yield from ctx.compute(backoff); backoff grows geometrically */
        double d = sp->backoff * sp->slow;
        sp->backoff = sp->backoff * sp->backoff_factor;
        if (sp->backoff > sp->backoff_max)
            sp->backoff = sp->backoff_max;
        if (d > 0.0) {
            sp->state = SP_BACKOFF;
            return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
        }
        goto round_top;
    }

steal_bounce:
    {
        PyObject *v = PyLong_FromLongLong(sp->cur_victim);
        int r;
        if (v == NULL)
            return -1;
        sp->state = SP_POST_STEAL;
        if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0) {
            Py_DECREF(v);
            return -1;
        }
        r = dispatch_send(rc, sp->worker, v, time_obj);
        Py_DECREF(v);
        return r;
    }

exit_nowork:
    {
        PyObject *worker = sp->worker;
        int r;
        Py_CLEAR(sp->victims);
        sp->worker = NULL;
        sp->state = SP_IDLE;
        if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0) {
            Py_DECREF(worker);
            return -1;
        }
        r = dispatch_send(rc, worker, Py_None, time_obj);
        Py_DECREF(worker);
        return r;
    }
}

/* Drive the mpi-ws idle wait: schedule the backoff compute events and
 * poll the mailbox fast path on each wake; exit (send None back to the
 * worker, which re-runs a full Python idle iteration) as soon as a
 * delivered message is visible.  The wait holds exactly the pure
 * loop's cadence: one event per empty poll, backoff growing
 * geometrically, reset by the worker (phase.reset()) on progress. */
static int
idle_run(IdlePhaseObject *ip, RunCtx *rc, PyObject *time_obj, int entry)
{
    switch (entry) {
    case IP_IDLE:       goto push_wait;
    case IP_WAIT:       goto check;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

check:
    if (PyList_GET_SIZE(ip->pending) > 0) {
        /* MsgWorld._take_delivered fast path, inverted: heap head
         * already arrived means the worker's iprobe will pop it. */
        PyObject *head = PyList_GET_ITEM(ip->pending, 0);
        PyObject *arr;
        double at;
        if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) < 1) {
            PyErr_SetString(SimulationError, "fastpath: bad mailbox");
            return -1;
        }
        arr = PyTuple_GET_ITEM(head, 0);
        at = PyFloat_AsDouble(arr);
        if (at == -1.0 && PyErr_Occurred())
            return -1;
        if (at <= rc->now)
            goto exit_msg;
    }

push_wait:
    {
        /* yield from ctx.compute(backoff); backoff grows geometrically */
        double d = ip->backoff * ip->slow;
        ip->backoff = ip->backoff * ip->backoff_factor;
        if (ip->backoff > ip->backoff_max)
            ip->backoff = ip->backoff_max;
        if (d > 0.0) {
            ip->state = IP_WAIT;
            return rc_push(rc, rc->now + d, (PyObject *)ip, Py_None);
        }
        /* Degenerate zero backoff: the pure loop would spin without
         * yielding; hand the spin to Python rather than loop in C. */
        goto exit_msg;
    }

exit_msg:
    {
        PyObject *worker = ip->worker;
        int r;
        ip->worker = NULL;
        ip->state = IP_IDLE;
        if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0) {
            Py_DECREF(worker);
            return -1;
        }
        r = dispatch_send(rc, worker, Py_None, time_obj);
        Py_DECREF(worker);
        return r;
    }
}

/* ------------------------------------------------------------------ */
/* process dispatch                                                   */
/* ------------------------------------------------------------------ */

static int phase_start(RunCtx *rc, LockPhaseObject *ph, PyObject *worker,
                       PyObject *time_obj);
static int owner_start(RunCtx *rc, OwnerPhaseObject *op, PyObject *worker,
                       PyObject *time_obj);
static int search_start(RunCtx *rc, SearchPhaseObject *sp, PyObject *worker,
                        PyObject *time_obj);
static int idle_start(RunCtx *rc, IdlePhaseObject *ip, PyObject *worker,
                      PyObject *time_obj);

/* Send `value` into `proc` (exact Process) and wire up whatever it
 * yields next.  Precondition: sim.now and sim._seq are synced out. */
static int
dispatch_send(RunCtx *rc, PyObject *proc, PyObject *value, PyObject *time_obj)
{
    PyObject *body, *awaited = NULL;
    PySendResult sr;

    if (Py_TYPE(proc) != ProcessType) {
        PyErr_Format(SimulationError,
                     "fastpath cannot drive process of type %.100s; "
                     "run with REPRO_FASTPATH=0",
                     Py_TYPE(proc)->tp_name);
        return -1;
    }
    body = SLOT(proc, off_p_body);
    if (body == NULL) {
        PyErr_SetString(SimulationError, "fastpath: process without body");
        return -1;
    }
    sr = PyIter_Send(body, value, &awaited);
    if (sr == PYGEN_ERROR)
        return -1;
    if (sr == PYGEN_RETURN) {
        /* StopIteration: alive = False; done.succeed(result);
         * _live_processes -= 1  (same order as the pure loop). */
        PyObject *done, *r;
        Py_INCREF(Py_False);
        slot_store(proc, off_p_alive, Py_False);
        done = SLOT(proc, off_p_done);
        if (done == NULL) {
            Py_DECREF(awaited);
            PyErr_SetString(SimulationError,
                            "fastpath: process without done event");
            return -1;
        }
        r = PyObject_CallMethodObjArgs(done, s_succeed, awaited, NULL);
        Py_DECREF(awaited);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (rc_reload_seq(rc) < 0)
            return -1;
        return dict_add_long(rc->simdict, s_live_processes, -1);
    }
    /* PYGEN_NEXT: the body may have fired events synchronously, so the
     * Python-side _seq is authoritative again. */
    if (rc_reload_seq(rc) < 0) {
        Py_DECREF(awaited);
        return -1;
    }
    if (Py_TYPE(awaited) == TimeoutType) {
        PyObject *delay = SLOT(awaited, off_t_delay);
        PyObject *tval = SLOT(awaited, off_t_value);
        double d;
        if (delay == NULL) {
            Py_DECREF(awaited);
            PyErr_SetString(SimulationError, "fastpath: Timeout.delay unset");
            return -1;
        }
        d = PyFloat_AsDouble(delay);
        if (d == -1.0 && PyErr_Occurred()) {
            Py_DECREF(awaited);
            return -1;
        }
        {
            int r = rc_push(rc, rc->now + d, proc, tval);
            Py_DECREF(awaited);
            return r;
        }
    }
    if (Py_TYPE(awaited) == SimEventType) {
        PyObject *fired = SLOT(awaited, off_e_fired);
        int r;
        if (fired == Py_True) {
            /* Late waiter on a fired event: resume at the current time
             * (the pure loop reuses the popped time object too). */
            r = rc_push_obj(rc, time_obj, proc, SLOT(awaited, off_e_value));
        } else {
            PyObject *waiters = SLOT(awaited, off_e_waiters);
            if (waiters == NULL || !PyList_CheckExact(waiters)) {
                PyErr_SetString(SimulationError,
                                "fastpath: bad event waiter list");
                Py_DECREF(awaited);
                return -1;
            }
            r = PyList_Append(waiters, proc);
        }
        Py_DECREF(awaited);
        return r;
    }
    if (Py_TYPE(awaited) == &LockPhase_Type) {
        int r = phase_start(rc, (LockPhaseObject *)awaited, proc, time_obj);
        Py_DECREF(awaited);
        return r;
    }
    if (Py_TYPE(awaited) == &OwnerPhase_Type) {
        int r = owner_start(rc, (OwnerPhaseObject *)awaited, proc, time_obj);
        Py_DECREF(awaited);
        return r;
    }
    if (Py_TYPE(awaited) == &SearchPhase_Type) {
        int r = search_start(rc, (SearchPhaseObject *)awaited, proc, time_obj);
        Py_DECREF(awaited);
        return r;
    }
    if (Py_TYPE(awaited) == &IdlePhase_Type) {
        int r = idle_start(rc, (IdlePhaseObject *)awaited, proc, time_obj);
        Py_DECREF(awaited);
        return r;
    }
    /* subclass fallbacks, via the simulator's own Python entry points */
    {
        int is_t = PyObject_IsInstance(awaited, (PyObject *)TimeoutType);
        if (is_t < 0) {
            Py_DECREF(awaited);
            return -1;
        }
        if (is_t) {
            PyObject *delay = PyObject_GetAttrString(awaited, "delay");
            PyObject *tval, *r;
            if (delay == NULL) {
                Py_DECREF(awaited);
                return -1;
            }
            tval = PyObject_GetAttrString(awaited, "value");
            if (tval == NULL) {
                Py_DECREF(delay);
                Py_DECREF(awaited);
                return -1;
            }
            r = PyObject_CallMethodObjArgs(rc->sim, s_schedule, delay, proc,
                                           tval, NULL);
            Py_DECREF(delay);
            Py_DECREF(tval);
            Py_DECREF(awaited);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            return rc_reload_seq(rc);
        }
    }
    {
        int is_e = PyObject_IsInstance(awaited, (PyObject *)SimEventType);
        if (is_e < 0) {
            Py_DECREF(awaited);
            return -1;
        }
        if (is_e) {
            PyObject *r = PyObject_CallMethodObjArgs(awaited, s_add_waiter,
                                                     proc, NULL);
            Py_DECREF(awaited);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            return rc_reload_seq(rc);
        }
    }
    {
        PyObject *name = SLOT(proc, off_p_name);
        PyErr_Format(SimulationError,
                     "process %R yielded non-awaitable %R",
                     name ? name : Py_None, awaited);
        Py_DECREF(awaited);
        return -1;
    }
}

static int
phase_start(RunCtx *rc, LockPhaseObject *ph, PyObject *worker,
            PyObject *time_obj)
{
    PyObject *r;
    if (ph->worker != NULL) {
        PyErr_SetString(SimulationError,
                        "fastpath: LockPhase yielded while already running");
        return -1;
    }
    Py_INCREF(worker);
    ph->worker = worker;
    ph->state = PH_IDLE;
    /* working_phase entry bookkeeping (state timer + work-avail poke);
     * sim.now / _seq were synced before the send that yielded us. */
    r = PyObject_CallNoArgs(ph->enter_cb);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    if (rc_reload_seq(rc) < 0)
        return -1;
    return phase_run(ph, rc, time_obj, PH_IDLE);
}

static int
owner_start(RunCtx *rc, OwnerPhaseObject *op, PyObject *worker,
            PyObject *time_obj)
{
    PyObject *r;
    if (op->state != OP_IDLE) {
        /* re-entry after a service bounce: resume mid-loop */
        if (op->worker != worker) {
            PyErr_SetString(SimulationError,
                            "fastpath: OwnerPhase re-yielded by a "
                            "different worker");
            return -1;
        }
        return owner_run(op, rc, time_obj, op->state);
    }
    if (op->worker != NULL) {
        PyErr_SetString(SimulationError,
                        "fastpath: OwnerPhase yielded while already running");
        return -1;
    }
    Py_INCREF(worker);
    op->worker = worker;
    /* working_phase entry bookkeeping (state timer + entry poke);
     * sim.now / _seq were synced before the send that yielded us. */
    r = PyObject_CallNoArgs(op->enter_cb);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    if (rc_reload_seq(rc) < 0)
        return -1;
    return owner_run(op, rc, time_obj, OP_IDLE);
}

static int
search_start(RunCtx *rc, SearchPhaseObject *sp, PyObject *worker,
             PyObject *time_obj)
{
    if (sp->state != SP_IDLE) {
        /* re-entry after a steal/service bounce: resume mid-round */
        if (sp->worker != worker) {
            PyErr_SetString(SimulationError,
                            "fastpath: SearchPhase re-yielded by a "
                            "different worker");
            return -1;
        }
        return search_run(sp, rc, time_obj, sp->state);
    }
    if (sp->worker != NULL) {
        PyErr_SetString(SimulationError,
                        "fastpath: SearchPhase yielded while already running");
        return -1;
    }
    Py_INCREF(worker);
    sp->worker = worker;
    /* search_phase has no entry bookkeeping (the worker is already in
     * the SEARCHING state when it yields the phase). */
    return search_run(sp, rc, time_obj, SP_IDLE);
}

static int
idle_start(RunCtx *rc, IdlePhaseObject *ip, PyObject *worker,
           PyObject *time_obj)
{
    /* Every wait episode exits (bounces None) before the worker can
     * re-yield the phase, so a running phase here is always a bug. */
    if (ip->state != IP_IDLE || ip->worker != NULL) {
        PyErr_SetString(SimulationError,
                        "fastpath: IdlePhase yielded while already running");
        return -1;
    }
    Py_INCREF(worker);
    ip->worker = worker;
    /* The pure loop ends every idle iteration with compute(backoff)
     * unconditionally, so entry goes straight to the first wait. */
    return idle_run(ip, rc, time_obj, IP_IDLE);
}

/* ------------------------------------------------------------------ */
/* the run loop                                                       */
/* ------------------------------------------------------------------ */

static int
rc_writeback(RunCtx *rc)
{
    PyObject *v;
    int bad = 0;
    v = PyFloat_FromDouble(rc->now);
    if (v == NULL)
        return -1;
    bad |= PyDict_SetItem(rc->simdict, s_now, v) < 0;
    Py_DECREF(v);
    v = PyLong_FromLongLong(rc->nev);
    if (v == NULL)
        return -1;
    bad |= PyDict_SetItem(rc->simdict, s_events_processed, v) < 0;
    Py_DECREF(v);
    bad |= rc_write_seq(rc) < 0;
    return bad ? -1 : 0;
}

static PyObject *
fast_run(PyObject *module, PyObject *args)
{
    PyObject *sim, *until_obj = Py_None;
    PyObject *v;
    RunCtx rc;
    int has_until = 0;
    double until_d = 0.0;
    unsigned long check_ctr = 0;

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O|O:run", &sim, &until_obj))
        return NULL;
    memset(&rc, 0, sizeof(rc));
    rc.sim = sim;
    rc.simdict = PyObject_GenericGetDict(sim, NULL);
    if (rc.simdict == NULL)
        return NULL;
    v = PyDict_GetItemWithError(rc.simdict, s_heap);
    if (v == NULL || !PyList_CheckExact(v)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "fastpath: sim._heap missing");
        Py_DECREF(rc.simdict);
        return NULL;
    }
    Py_INCREF(v);
    rc.heap = v;
    v = PyDict_GetItemWithError(rc.simdict, s_max_events);
    if (v == NULL)
        goto badsim;
    rc.limit = PyLong_AsLongLong(v);
    if (rc.limit == -1 && PyErr_Occurred())
        goto badsim;
    v = PyDict_GetItemWithError(rc.simdict, s_events_processed);
    if (v == NULL)
        goto badsim;
    rc.nev = PyLong_AsLongLong(v);
    if (rc.nev == -1 && PyErr_Occurred())
        goto badsim;
    v = PyDict_GetItemWithError(rc.simdict, s_now);
    if (v == NULL)
        goto badsim;
    rc.now = PyFloat_AsDouble(v);
    if (rc.now == -1.0 && PyErr_Occurred())
        goto badsim;
    if (rc_reload_seq(&rc) < 0)
        goto badsim;
    if (until_obj != Py_None) {
        has_until = 1;
        until_d = PyFloat_AsDouble(until_obj);
        if (until_d == -1.0 && PyErr_Occurred())
            goto badsim;
    }

    while (PyList_GET_SIZE(rc.heap) > 0) {
        PyObject *item, *time_obj, *proc, *value;
        double t;

        if ((++check_ctr & 4095) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        if (has_until) {
            PyObject *top = PyList_GET_ITEM(rc.heap, 0);
            double t0;
            if (!PyTuple_CheckExact(top) || PyTuple_GET_SIZE(top) != 4) {
                PyErr_SetString(SimulationError,
                                "fastpath: malformed heap item");
                goto fail;
            }
            t0 = PyFloat_AsDouble(PyTuple_GET_ITEM(top, 0));
            if (t0 == -1.0 && PyErr_Occurred())
                goto fail;
            if (t0 > until_d) {
                /* Deadline reached: the pending item stays queued. */
                rc.now = until_d;
                goto done;
            }
        }
        item = heap_pop_item(rc.heap);
        if (item == NULL)
            goto fail;
        if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 4) {
            Py_DECREF(item);
            PyErr_SetString(SimulationError, "fastpath: malformed heap item");
            goto fail;
        }
        time_obj = PyTuple_GET_ITEM(item, 0);
        proc = PyTuple_GET_ITEM(item, 2);
        value = PyTuple_GET_ITEM(item, 3);
        t = PyFloat_AsDouble(time_obj);
        if (t == -1.0 && PyErr_Occurred()) {
            Py_DECREF(item);
            goto fail;
        }

        if (proc != Py_None) {
            if (Py_TYPE(proc) == ProcessType) {
                PyObject *alive = SLOT(proc, off_p_alive);
                if (alive != Py_True) {
                    /* stale resumption of an interrupted process:
                     * dropped, never counted */
                    Py_DECREF(item);
                    continue;
                }
                rc.now = t;
                if (rc.nev >= rc.limit) {
                    rc_raise_limit(&rc, time_obj);
                    Py_DECREF(item);
                    goto fail;
                }
                rc.nev += 1;
                if (rc_write_now(&rc, time_obj) < 0
                        || rc_write_seq(&rc) < 0
                        || dispatch_send(&rc, proc, value, time_obj) < 0) {
                    Py_DECREF(item);
                    goto fail;
                }
            } else if (Py_TYPE(proc) == &LockPhase_Type) {
                LockPhaseObject *ph = (LockPhaseObject *)proc;
                rc.now = t;
                if (rc.nev >= rc.limit) {
                    rc_raise_limit(&rc, time_obj);
                    Py_DECREF(item);
                    goto fail;
                }
                rc.nev += 1;
                if (phase_run(ph, &rc, time_obj, ph->state) < 0) {
                    Py_DECREF(item);
                    goto fail;
                }
            } else if (Py_TYPE(proc) == &OwnerPhase_Type) {
                OwnerPhaseObject *op = (OwnerPhaseObject *)proc;
                rc.now = t;
                if (rc.nev >= rc.limit) {
                    rc_raise_limit(&rc, time_obj);
                    Py_DECREF(item);
                    goto fail;
                }
                rc.nev += 1;
                if (owner_run(op, &rc, time_obj, op->state) < 0) {
                    Py_DECREF(item);
                    goto fail;
                }
            } else if (Py_TYPE(proc) == &SearchPhase_Type) {
                SearchPhaseObject *sp = (SearchPhaseObject *)proc;
                rc.now = t;
                if (rc.nev >= rc.limit) {
                    rc_raise_limit(&rc, time_obj);
                    Py_DECREF(item);
                    goto fail;
                }
                rc.nev += 1;
                if (search_run(sp, &rc, time_obj, sp->state) < 0) {
                    Py_DECREF(item);
                    goto fail;
                }
            } else if (Py_TYPE(proc) == &IdlePhase_Type) {
                IdlePhaseObject *ipp = (IdlePhaseObject *)proc;
                rc.now = t;
                if (rc.nev >= rc.limit) {
                    rc_raise_limit(&rc, time_obj);
                    Py_DECREF(item);
                    goto fail;
                }
                rc.nev += 1;
                if (idle_run(ipp, &rc, time_obj, ipp->state) < 0) {
                    Py_DECREF(item);
                    goto fail;
                }
            } else {
                PyErr_Format(SimulationError,
                             "fastpath cannot drive process of type %.100s; "
                             "run with REPRO_FASTPATH=0",
                             Py_TYPE(proc)->tp_name);
                Py_DECREF(item);
                goto fail;
            }
        } else {
            rc.now = t;
            if (rc.nev >= rc.limit) {
                rc_raise_limit(&rc, time_obj);
                Py_DECREF(item);
                goto fail;
            }
            rc.nev += 1;
            if (PyTuple_CheckExact(value)) {
                if (PyTuple_GET_SIZE(value) != 3) {
                    Py_DECREF(item);
                    PyErr_SetString(PyExc_ValueError,
                                    "fastpath: malformed delayed-fire "
                                    "payload");
                    goto fail;
                }
                {
                    PyObject *ev = PyTuple_GET_ITEM(value, 0);
                    PyObject *val = PyTuple_GET_ITEM(value, 1);
                    PyObject *stag = PyTuple_GET_ITEM(value, 2);
                    if (Py_TYPE(ev) == SimEventType
                            && PyFloat_CheckExact(stag)
                            && PyFloat_AS_DOUBLE(stag) >= 0.0) {
                        /* inline SimEvent._fire */
                        double stag_d = PyFloat_AS_DOUBLE(stag);
                        PyObject *waiters = SLOT(ev, off_e_waiters);
                        Py_ssize_t wn, i;
                        int bad = 0;
                        if (waiters == NULL
                                || !PyList_CheckExact(waiters)) {
                            Py_DECREF(item);
                            PyErr_SetString(SimulationError,
                                            "fastpath: bad event waiter "
                                            "list");
                            goto fail;
                        }
                        Py_INCREF(Py_True);
                        slot_store(ev, off_e_fired, Py_True);
                        Py_INCREF(Py_False);
                        slot_store(ev, off_e_scheduled, Py_False);
                        Py_INCREF(val);
                        slot_store(ev, off_e_value, val);
                        wn = PyList_GET_SIZE(waiters);
                        for (i = 0; i < wn; i++) {
                            PyObject *w = PyList_GET_ITEM(waiters, i);
                            if (rc_push(&rc, rc.now + (double)i * stag_d,
                                        w, val) < 0) {
                                bad = 1;
                                break;
                            }
                        }
                        if (!bad && PyList_SetSlice(
                                waiters, 0, PyList_GET_SIZE(waiters),
                                NULL) < 0)
                            bad = 1;
                        if (bad) {
                            Py_DECREF(item);
                            goto fail;
                        }
                    } else {
                        /* unusual event/stagger: defer to Python */
                        PyObject *r;
                        if (rc_write_now(&rc, time_obj) < 0
                                || rc_write_seq(&rc) < 0) {
                            Py_DECREF(item);
                            goto fail;
                        }
                        r = PyObject_CallMethodObjArgs(ev, s_fire_m, val,
                                                       stag, NULL);
                        if (r == NULL || rc_reload_seq(&rc) < 0) {
                            Py_XDECREF(r);
                            Py_DECREF(item);
                            goto fail;
                        }
                        Py_DECREF(r);
                    }
                }
            } else {
                /* bare callback (_call_at) */
                PyObject *r;
                if (rc_write_now(&rc, time_obj) < 0
                        || rc_write_seq(&rc) < 0) {
                    Py_DECREF(item);
                    goto fail;
                }
                r = PyObject_CallNoArgs(value);
                if (r == NULL || rc_reload_seq(&rc) < 0) {
                    Py_XDECREF(r);
                    Py_DECREF(item);
                    goto fail;
                }
                Py_DECREF(r);
            }
        }
        Py_DECREF(item);
    }

done:
    if (rc_writeback(&rc) < 0)
        goto badsim;
    Py_DECREF(rc.heap);
    Py_DECREF(rc.simdict);
    return PyFloat_FromDouble(rc.now);

fail:
    {
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        if (rc_writeback(&rc) < 0)
            PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
badsim:
    Py_XDECREF(rc.heap);
    Py_DECREF(rc.simdict);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* standalone batch_expand binding                                    */
/* ------------------------------------------------------------------ */

static PyObject *
py_batch_expand(PyObject *module, PyObject *args)
{
    TreeView tv = {NULL};
    PyObject *tree, *local, *res = NULL;
    long long limit, thresh, n = 0, pushed = 0;
    if (!PyArg_ParseTuple(args, "Oy*y*O!LL:batch_expand", &tree, &tv.delta,
                          &tv.size, &PyList_Type, &local, &limit, &thresh))
        return NULL;
    Py_INCREF(tree);
    tv.tree = tree;
    if (c_batch_expand(&tv, local, limit, thresh, &n, &pushed) == 0)
        res = Py_BuildValue("LL", n, pushed);
    tv_clear(&tv);
    return res;
}

/* ------------------------------------------------------------------ */
/* LockPhase type                                                     */
/* ------------------------------------------------------------------ */

static int
LockPhase_init(LockPhaseObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "sim", "local", "shared", "shared_append", "shared_pop", "stack",
        "st_dict", "wa", "fifo", "queue", "queue_append", "queue_popleft",
        "ev_name", "enter_cb", "exit_cb", "tree", "delta", "size",
        "barrier_dict", "visit_costs", "lock_to", "unlock_to",
        "reset_cost", "home_occupancy", "chunk", "thresh", "limit", NULL};
    PyObject *sim, *local, *shared, *shared_append, *shared_pop, *stack,
        *st_dict, *wa, *fifo, *queue, *queue_append, *queue_popleft,
        *ev_name, *enter_cb, *exit_cb, *tree, *barrier_dict, *visit_costs;
    double lock_to, unlock_to, reset_cost, home_occupancy;
    long long chunk, thresh, limit;
    PyObject *fast = NULL;
    Py_ssize_t nvt, i;

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return -1;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOOOOOOOOOOOOOOOy*y*OOddddLLL:LockPhase", kwlist,
            &sim, &local, &shared, &shared_append, &shared_pop, &stack,
            &st_dict, &wa, &fifo, &queue, &queue_append, &queue_popleft,
            &ev_name, &enter_cb, &exit_cb, &tree, &self->tv.delta,
            &self->tv.size, &barrier_dict, &visit_costs, &lock_to,
            &unlock_to, &reset_cost, &home_occupancy, &chunk, &thresh,
            &limit))
        return -1;
    if (!PyList_CheckExact(local) || !PyDict_CheckExact(st_dict)
            || (barrier_dict != Py_None
                && !PyDict_CheckExact(barrier_dict))) {
        PyErr_SetString(PyExc_TypeError, "LockPhase: bad container types");
        return -1;
    }
    fast = PySequence_Fast(visit_costs, "visit_costs must be a sequence");
    if (fast == NULL)
        return -1;
    nvt = PySequence_Fast_GET_SIZE(fast);
    if (nvt < limit + 1 || limit < 1 || chunk < 1 || thresh < 1) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "LockPhase: bad phase bounds");
        return -1;
    }
    self->vt = PyMem_Malloc((size_t)nvt * sizeof(double));
    if (self->vt == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < nvt; i++) {
        double d = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if (d == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        self->vt[i] = d;
    }
    Py_DECREF(fast);

#define PH_SET(field, obj) do { Py_INCREF(obj); self->field = (obj); } while (0)
    PH_SET(sim, sim);
    PH_SET(local, local);
    PH_SET(shared, shared);
    PH_SET(shared_append, shared_append);
    PH_SET(shared_pop, shared_pop);
    PH_SET(stack, stack);
    PH_SET(st_dict, st_dict);
    PH_SET(wa, wa);
    PH_SET(fifo, fifo);
    PH_SET(queue, queue);
    PH_SET(queue_append, queue_append);
    PH_SET(queue_popleft, queue_popleft);
    PH_SET(ev_name, ev_name);
    PH_SET(enter_cb, enter_cb);
    PH_SET(exit_cb, exit_cb);
    PH_SET(tv.tree, tree);
#undef PH_SET
    if (barrier_dict == Py_None) {
        self->barrier_dict = NULL;
    } else {
        Py_INCREF(barrier_dict);
        self->barrier_dict = barrier_dict;
    }
    self->lock_to = lock_to;
    self->unlock_to = unlock_to;
    self->reset_cost = reset_cost;
    self->home_occupancy = home_occupancy;
    self->chunk = chunk;
    self->thresh = thresh;
    self->limit = limit;
    self->worker = NULL;
    self->state = PH_IDLE;
    self->substate = SUB_RELEASE;
    return 0;
}

static int
LockPhase_traverse(LockPhaseObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->local);
    Py_VISIT(self->shared);
    Py_VISIT(self->shared_append);
    Py_VISIT(self->shared_pop);
    Py_VISIT(self->stack);
    Py_VISIT(self->st_dict);
    Py_VISIT(self->wa);
    Py_VISIT(self->fifo);
    Py_VISIT(self->queue);
    Py_VISIT(self->queue_append);
    Py_VISIT(self->queue_popleft);
    Py_VISIT(self->ev_name);
    Py_VISIT(self->enter_cb);
    Py_VISIT(self->exit_cb);
    Py_VISIT(self->tv.tree);
    Py_VISIT(self->barrier_dict);
    Py_VISIT(self->worker);
    return 0;
}

static int
LockPhase_clear(LockPhaseObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->local);
    Py_CLEAR(self->shared);
    Py_CLEAR(self->shared_append);
    Py_CLEAR(self->shared_pop);
    Py_CLEAR(self->stack);
    Py_CLEAR(self->st_dict);
    Py_CLEAR(self->wa);
    Py_CLEAR(self->fifo);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->queue_append);
    Py_CLEAR(self->queue_popleft);
    Py_CLEAR(self->ev_name);
    Py_CLEAR(self->enter_cb);
    Py_CLEAR(self->exit_cb);
    tv_clear(&self->tv);
    Py_CLEAR(self->barrier_dict);
    Py_CLEAR(self->worker);
    return 0;
}

static void
LockPhase_dealloc(LockPhaseObject *self)
{
    PyObject_GC_UnTrack(self);
    (void)LockPhase_clear(self);
    PyMem_Free(self->vt);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
LockPhase_get_running(LockPhaseObject *self, void *closure)
{
    return PyBool_FromLong(self->worker != NULL);
}

static PyGetSetDef LockPhase_getset[] = {
    {"running", (getter)LockPhase_get_running, NULL,
     "True while a worker is inside this fused phase", NULL},
    {NULL}
};

static PyTypeObject LockPhase_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._core.LockPhase",
    .tp_basicsize = sizeof(LockPhaseObject),
    .tp_dealloc = (destructor)LockPhase_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Fused working-phase state machine for LockBasedAlgorithm",
    .tp_traverse = (traverseproc)LockPhase_traverse,
    .tp_clear = (inquiry)LockPhase_clear,
    .tp_getset = LockPhase_getset,
    .tp_init = (initproc)LockPhase_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* OwnerPhase type                                                    */
/* ------------------------------------------------------------------ */

static int
OwnerPhase_init(OwnerPhaseObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "sim", "local", "shared", "shared_append", "shared_pop", "stack",
        "st_dict", "wa", "no_work", "req_slot", "poll", "pending",
        "enter_cb", "exit_cb", "tree", "delta", "size", "visit_costs",
        "chunk", "thresh", "limit", NULL};
    PyObject *sim, *local, *shared, *shared_append, *shared_pop, *stack,
        *st_dict, *wa, *no_work, *req_slot, *poll, *pending,
        *enter_cb, *exit_cb, *tree, *visit_costs;
    long long chunk, thresh, limit;
    PyObject *fast = NULL;
    Py_ssize_t nvt, i;

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return -1;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOOOOOOOOOOOOOOy*y*OLLL:OwnerPhase", kwlist,
            &sim, &local, &shared, &shared_append, &shared_pop, &stack,
            &st_dict, &wa, &no_work, &req_slot, &poll, &pending,
            &enter_cb, &exit_cb, &tree, &self->tv.delta, &self->tv.size,
            &visit_costs, &chunk, &thresh, &limit))
        return -1;
    if (!PyList_CheckExact(local) || !PyDict_CheckExact(st_dict)
            || (poll != Py_None && !PyList_CheckExact(pending))) {
        PyErr_SetString(PyExc_TypeError, "OwnerPhase: bad container types");
        return -1;
    }
    fast = PySequence_Fast(visit_costs, "visit_costs must be a sequence");
    if (fast == NULL)
        return -1;
    nvt = PySequence_Fast_GET_SIZE(fast);
    if (nvt < limit + 1 || limit < 1 || chunk < 1 || thresh < 1) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "OwnerPhase: bad phase bounds");
        return -1;
    }
    self->vt = PyMem_Malloc((size_t)nvt * sizeof(double));
    if (self->vt == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < nvt; i++) {
        double d = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if (d == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        self->vt[i] = d;
    }
    Py_DECREF(fast);

#define OP_SET(field, obj) \
    do { Py_INCREF(obj); self->field = (obj); } while (0)
#define OP_SET_OPT(field, obj) \
    do { \
        if ((obj) == Py_None) { \
            self->field = NULL; \
        } else { \
            Py_INCREF(obj); \
            self->field = (obj); \
        } \
    } while (0)
    OP_SET(sim, sim);
    OP_SET(local, local);
    OP_SET(shared, shared);
    OP_SET(shared_append, shared_append);
    OP_SET(shared_pop, shared_pop);
    OP_SET(stack, stack);
    OP_SET(st_dict, st_dict);
    OP_SET_OPT(wa, wa);
    OP_SET(no_work, no_work);
    OP_SET_OPT(req_slot, req_slot);
    OP_SET_OPT(poll, poll);
    OP_SET_OPT(pending, pending);
    OP_SET(enter_cb, enter_cb);
    OP_SET(exit_cb, exit_cb);
    OP_SET(tv.tree, tree);
#undef OP_SET
#undef OP_SET_OPT
    self->chunk = chunk;
    self->thresh = thresh;
    self->limit = limit;
    self->worker = NULL;
    self->state = OP_IDLE;
    return 0;
}

static int
OwnerPhase_traverse(OwnerPhaseObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->local);
    Py_VISIT(self->shared);
    Py_VISIT(self->shared_append);
    Py_VISIT(self->shared_pop);
    Py_VISIT(self->stack);
    Py_VISIT(self->st_dict);
    Py_VISIT(self->wa);
    Py_VISIT(self->no_work);
    Py_VISIT(self->req_slot);
    Py_VISIT(self->poll);
    Py_VISIT(self->pending);
    Py_VISIT(self->enter_cb);
    Py_VISIT(self->exit_cb);
    Py_VISIT(self->tv.tree);
    Py_VISIT(self->worker);
    return 0;
}

static int
OwnerPhase_clear(OwnerPhaseObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->local);
    Py_CLEAR(self->shared);
    Py_CLEAR(self->shared_append);
    Py_CLEAR(self->shared_pop);
    Py_CLEAR(self->stack);
    Py_CLEAR(self->st_dict);
    Py_CLEAR(self->wa);
    Py_CLEAR(self->no_work);
    Py_CLEAR(self->req_slot);
    Py_CLEAR(self->poll);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->enter_cb);
    Py_CLEAR(self->exit_cb);
    tv_clear(&self->tv);
    Py_CLEAR(self->worker);
    return 0;
}

static void
OwnerPhase_dealloc(OwnerPhaseObject *self)
{
    PyObject_GC_UnTrack(self);
    (void)OwnerPhase_clear(self);
    PyMem_Free(self->vt);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
OwnerPhase_get_running(OwnerPhaseObject *self, void *closure)
{
    return PyBool_FromLong(self->worker != NULL);
}

static PyGetSetDef OwnerPhase_getset[] = {
    {"running", (getter)OwnerPhase_get_running, NULL,
     "True while a worker is inside this fused phase", NULL},
    {NULL}
};

static PyTypeObject OwnerPhase_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._core.OwnerPhase",
    .tp_basicsize = sizeof(OwnerPhaseObject),
    .tp_dealloc = (destructor)OwnerPhase_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Fused owner-only working phase (upc-distmem / mpi-ws)",
    .tp_traverse = (traverseproc)OwnerPhase_traverse,
    .tp_clear = (inquiry)OwnerPhase_clear,
    .tp_getset = OwnerPhase_getset,
    .tp_init = (initproc)OwnerPhase_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* SearchPhase type                                                   */
/* ------------------------------------------------------------------ */

static int
SearchPhase_init(SearchPhaseObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "sim", "st_dict", "cycle", "row", "slots", "req_slot",
        "backoff_min", "backoff_factor", "backoff_max", "slow",
        "persist", "segments", "getrandbits", NULL};
    PyObject *sim, *st_dict, *cycle, *row, *slots, *req_slot;
    PyObject *segments = Py_None, *getrandbits = Py_None;
    double backoff_min, backoff_factor, backoff_max, slow;
    int persist;

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return -1;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOOOOOddddp|OO:SearchPhase", kwlist,
            &sim, &st_dict, &cycle, &row, &slots, &req_slot,
            &backoff_min, &backoff_factor, &backoff_max, &slow, &persist,
            &segments, &getrandbits))
        return -1;
    if (!PyDict_CheckExact(st_dict) || !PyList_CheckExact(row)
            || !PyList_CheckExact(slots) || !PyCallable_Check(cycle)) {
        PyErr_SetString(PyExc_TypeError, "SearchPhase: bad argument types");
        return -1;
    }
    if (segments != Py_None) {
        Py_ssize_t si;
        if (!PyList_CheckExact(segments) || !PyCallable_Check(getrandbits)) {
            PyErr_SetString(PyExc_TypeError,
                            "SearchPhase: segments must be a list of lists "
                            "with a getrandbits callable");
            return -1;
        }
        for (si = 0; si < PyList_GET_SIZE(segments); si++) {
            if (!PyList_CheckExact(PyList_GET_ITEM(segments, si))) {
                PyErr_SetString(PyExc_TypeError,
                                "SearchPhase: segments must be a list of "
                                "lists");
                return -1;
            }
        }
    }
#define SP_SET(field, obj) \
    do { Py_INCREF(obj); self->field = (obj); } while (0)
    SP_SET(sim, sim);
    SP_SET(st_dict, st_dict);
    SP_SET(cycle, cycle);
    SP_SET(row, row);
    SP_SET(slots, slots);
#undef SP_SET
    if (req_slot == Py_None) {
        self->req_slot = NULL;
    } else {
        Py_INCREF(req_slot);
        self->req_slot = req_slot;
    }
    if (segments == Py_None) {
        self->segments = NULL;
        self->getrandbits = NULL;
    } else {
        Py_INCREF(segments);
        self->segments = segments;
        Py_INCREF(getrandbits);
        self->getrandbits = getrandbits;
    }
    self->backoff_min = backoff_min;
    self->backoff_factor = backoff_factor;
    self->backoff_max = backoff_max;
    self->slow = slow;
    self->persist = persist;
    self->victims = NULL;
    self->idx = 0;
    self->cur_victim = 0;
    self->cost_acc = 0.0;
    self->backoff = backoff_min;
    self->probes_acc = 0;
    self->any_working = 0;
    self->worker = NULL;
    self->state = SP_IDLE;
    return 0;
}

static int
SearchPhase_traverse(SearchPhaseObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->st_dict);
    Py_VISIT(self->cycle);
    Py_VISIT(self->segments);
    Py_VISIT(self->getrandbits);
    Py_VISIT(self->row);
    Py_VISIT(self->slots);
    Py_VISIT(self->req_slot);
    Py_VISIT(self->victims);
    Py_VISIT(self->worker);
    return 0;
}

static int
SearchPhase_clear(SearchPhaseObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->st_dict);
    Py_CLEAR(self->cycle);
    Py_CLEAR(self->segments);
    Py_CLEAR(self->getrandbits);
    Py_CLEAR(self->row);
    Py_CLEAR(self->slots);
    Py_CLEAR(self->req_slot);
    Py_CLEAR(self->victims);
    Py_CLEAR(self->worker);
    return 0;
}

static void
SearchPhase_dealloc(SearchPhaseObject *self)
{
    PyObject_GC_UnTrack(self);
    (void)SearchPhase_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
SearchPhase_abort(SearchPhaseObject *self, PyObject *Py_UNUSED(ignored))
{
    /* Successful steal: the worker returns to its main loop instead of
     * re-yielding, so reset the phase for its next search episode.
     * (probes_acc is always flushed before a bounce, so no counters
     * are lost here.) */
    Py_CLEAR(self->victims);
    Py_CLEAR(self->worker);
    self->probes_acc = 0;
    self->cost_acc = 0.0;
    self->state = SP_IDLE;
    Py_RETURN_NONE;
}

static PyMethodDef SearchPhase_methods[] = {
    {"abort", (PyCFunction)SearchPhase_abort, METH_NOARGS,
     "Reset the phase after a successful steal (worker will not "
     "re-yield it)"},
    {NULL, NULL, 0, NULL}
};

static PyObject *
SearchPhase_get_running(SearchPhaseObject *self, void *closure)
{
    return PyBool_FromLong(self->worker != NULL);
}

static PyGetSetDef SearchPhase_getset[] = {
    {"running", (getter)SearchPhase_get_running, NULL,
     "True while a worker is inside this fused phase", NULL},
    {NULL}
};

static PyTypeObject SearchPhase_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._core.SearchPhase",
    .tp_basicsize = sizeof(SearchPhaseObject),
    .tp_dealloc = (destructor)SearchPhase_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Fused polling search phase (lock-based / upc-distmem)",
    .tp_traverse = (traverseproc)SearchPhase_traverse,
    .tp_clear = (inquiry)SearchPhase_clear,
    .tp_methods = SearchPhase_methods,
    .tp_getset = SearchPhase_getset,
    .tp_init = (initproc)SearchPhase_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* IdlePhase type                                                     */
/* ------------------------------------------------------------------ */

static int
IdlePhase_init(IdlePhaseObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "sim", "pending", "backoff_min", "backoff_factor", "backoff_max",
        "slow", NULL};
    PyObject *sim, *pending;
    double backoff_min, backoff_factor, backoff_max, slow;

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return -1;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOdddd:IdlePhase", kwlist,
            &sim, &pending, &backoff_min, &backoff_factor, &backoff_max,
            &slow))
        return -1;
    if (!PyList_CheckExact(pending)) {
        PyErr_SetString(PyExc_TypeError, "IdlePhase: bad argument types");
        return -1;
    }
    Py_INCREF(sim);
    self->sim = sim;
    Py_INCREF(pending);
    self->pending = pending;
    self->backoff_min = backoff_min;
    self->backoff_factor = backoff_factor;
    self->backoff_max = backoff_max;
    self->slow = slow;
    self->backoff = backoff_min;
    self->worker = NULL;
    self->state = IP_IDLE;
    return 0;
}

static int
IdlePhase_traverse(IdlePhaseObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->pending);
    Py_VISIT(self->worker);
    return 0;
}

static int
IdlePhase_clear(IdlePhaseObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->worker);
    return 0;
}

static void
IdlePhase_dealloc(IdlePhaseObject *self)
{
    PyObject_GC_UnTrack(self);
    (void)IdlePhase_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
IdlePhase_reset(IdlePhaseObject *self, PyObject *Py_UNUSED(ignored))
{
    /* The idle iteration made progress: backoff restarts at the floor,
     * exactly the pure loop's `if progressed: backoff = bmin`. */
    self->backoff = self->backoff_min;
    Py_RETURN_NONE;
}

static PyMethodDef IdlePhase_methods[] = {
    {"reset", (PyCFunction)IdlePhase_reset, METH_NOARGS,
     "Restart the backoff at its floor (idle iteration progressed)"},
    {NULL, NULL, 0, NULL}
};

static PyObject *
IdlePhase_get_running(IdlePhaseObject *self, void *closure)
{
    return PyBool_FromLong(self->worker != NULL);
}

static PyGetSetDef IdlePhase_getset[] = {
    {"running", (getter)IdlePhase_get_running, NULL,
     "True while a worker is inside this fused phase", NULL},
    {NULL}
};

static PyTypeObject IdlePhase_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.fastpath._core.IdlePhase",
    .tp_basicsize = sizeof(IdlePhaseObject),
    .tp_dealloc = (destructor)IdlePhase_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Fused mpi-ws idle wait (backoff polls between messages)",
    .tp_traverse = (traverseproc)IdlePhase_traverse,
    .tp_clear = (inquiry)IdlePhase_clear,
    .tp_methods = IdlePhase_methods,
    .tp_getset = IdlePhase_getset,
    .tp_init = (initproc)IdlePhase_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* configure                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
py_configure(PyObject *module, PyObject *args)
{
    PyObject *timeout_cls, *event_cls, *process_cls, *fifo_cls,
        *stack_cls, *shared_cls, *sim_error, *cancelled;
    if (!PyArg_ParseTuple(args, "OOOOOOOO:configure", &timeout_cls,
                          &event_cls, &process_cls, &fifo_cls, &stack_cls,
                          &shared_cls, &sim_error, &cancelled))
        return NULL;
    if (!PyType_Check(timeout_cls) || !PyType_Check(event_cls)
            || !PyType_Check(process_cls) || !PyType_Check(fifo_cls)
            || !PyType_Check(stack_cls) || !PyType_Check(shared_cls)) {
        PyErr_SetString(PyExc_TypeError, "configure expects classes");
        return NULL;
    }
#define RES(var, cls, name) \
    do { \
        var = resolve_slot(cls, name); \
        if (var < 0) \
            return NULL; \
    } while (0)
    RES(off_t_delay, timeout_cls, "delay");
    RES(off_t_value, timeout_cls, "value");
    RES(off_e_fired, event_cls, "fired");
    RES(off_e_scheduled, event_cls, "scheduled");
    RES(off_e_value, event_cls, "value");
    RES(off_e_waiters, event_cls, "_waiters");
    RES(off_p_body, process_cls, "body");
    RES(off_p_done, process_cls, "done");
    RES(off_p_alive, process_cls, "alive");
    RES(off_p_name, process_cls, "name");
    RES(off_f_locked, fifo_cls, "locked");
    RES(off_f_queue, fifo_cls, "_queue");
    RES(off_f_acq, fifo_cls, "acquisitions");
    RES(off_f_cacq, fifo_cls, "contended_acquisitions");
    RES(off_f_busy, fifo_cls, "busy_time");
    RES(off_f_acqat, fifo_cls, "_acquired_at");
    RES(off_st_pushes, stack_cls, "pushes");
    RES(off_st_pops, stack_cls, "pops");
    RES(off_st_released, stack_cls, "released_nodes");
    RES(off_st_reacquired, stack_cls, "reacquired_nodes");
    RES(off_w_value, shared_cls, "value");
    RES(off_w_writes, shared_cls, "writes");
#undef RES
    Py_INCREF(timeout_cls);
    Py_XSETREF(TimeoutType, (PyTypeObject *)timeout_cls);
    Py_INCREF(event_cls);
    Py_XSETREF(SimEventType, (PyTypeObject *)event_cls);
    Py_INCREF(process_cls);
    Py_XSETREF(ProcessType, (PyTypeObject *)process_cls);
    Py_INCREF(sim_error);
    Py_XSETREF(SimulationError, sim_error);
    Py_INCREF(cancelled);
    Py_XSETREF(Cancelled, cancelled);
    configured = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyMethodDef core_methods[] = {
    {"configure", py_configure, METH_VARARGS,
     "configure(Timeout, SimEvent, Process, FifoLock, SplitStack, "
     "SharedVar, SimulationError, cancelled) -> None"},
    {"run", fast_run, METH_VARARGS,
     "run(sim, until=None) -> float -- the compiled Simulator.run loop"},
    {"batch_expand", py_batch_expand, METH_VARARGS,
     "batch_expand(tree, delta, size, local, limit, thresh) -> (n, pushed)"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.fastpath._core",
    .m_doc = "Compiled event-dispatch backend (see repro.fastpath)",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *m;
#define INTERN(var, text) \
    do { \
        var = PyUnicode_InternFromString(text); \
        if (var == NULL) \
            return NULL; \
    } while (0)
    INTERN(s_now, "now");
    INTERN(s_seq, "_seq");
    INTERN(s_events_processed, "events_processed");
    INTERN(s_live_processes, "_live_processes");
    INTERN(s_heap, "_heap");
    INTERN(s_max_events, "max_events");
    INTERN(s_limit_error, "_limit_error");
    INTERN(s_succeed, "succeed");
    INTERN(s_schedule, "_schedule");
    INTERN(s_add_waiter, "add_waiter");
    INTERN(s_fire_m, "_fire");
    INTERN(s_nodes_visited, "nodes_visited");
    INTERN(s_reacquires, "reacquires");
    INTERN(s_releases, "releases");
    INTERN(s_cancels, "cancels");
    INTERN(s_waiters_key, "_waiters");
    INTERN(s_probes, "probes");
#undef INTERN
    if (PyType_Ready(&LockPhase_Type) < 0)
        return NULL;
    if (PyType_Ready(&OwnerPhase_Type) < 0)
        return NULL;
    if (PyType_Ready(&SearchPhase_Type) < 0)
        return NULL;
    if (PyType_Ready(&IdlePhase_Type) < 0)
        return NULL;
    m = PyModule_Create(&core_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&LockPhase_Type);
    if (PyModule_AddObject(m, "LockPhase", (PyObject *)&LockPhase_Type) < 0) {
        Py_DECREF(&LockPhase_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&OwnerPhase_Type);
    if (PyModule_AddObject(m, "OwnerPhase",
                           (PyObject *)&OwnerPhase_Type) < 0) {
        Py_DECREF(&OwnerPhase_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&SearchPhase_Type);
    if (PyModule_AddObject(m, "SearchPhase",
                           (PyObject *)&SearchPhase_Type) < 0) {
        Py_DECREF(&SearchPhase_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&IdlePhase_Type);
    if (PyModule_AddObject(m, "IdlePhase",
                           (PyObject *)&IdlePhase_Type) < 0) {
        Py_DECREF(&IdlePhase_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
