/* repro.fastpath._core -- compiled execution backend for the engine.
 *
 * A C mirror of documented pure-Python hot loops.  The Python source
 * is normative: this file must replicate it event for event, so that
 * the schedule pins of bench/pins.json and tests/fastpath hold on both
 * backends.
 *
 *   run(sim, until=None)
 *       Simulator.run over the heap backend with FIFO keys: same
 *       dispatch, same stale-entry skip, same exact budget check, same
 *       inline handling of Timeout, SimEvent and the (event, value,
 *       stagger) delayed-fire record.  The awaitable contract is the
 *       pure loop's: exactly Timeout, exactly SimEvent, or a phase
 *       object of this module; anything else is a SimulationError.
 *
 *   batch_expand(tree, delta, size, local, limit, thresh)
 *       MaterializedTree.batch_expand: the DFS inner loop as range
 *       scans of the tree's preorder arrays, read in place.
 *
 *   expand(engine, roots, b0, m, thresh, cap, count_only=False)
 *       uts.materialized.expand for binomial sha1 / splitmix trees:
 *       the sequential search with the generator inline, emitting the
 *       preorder arrays (or, count_only, the node count alone).  The
 *       one function here that needs no configure().
 *
 *   scan_probe(scan, slots, bounds)
 *       ProbeScan.probe: the parked search's victim scan (draw, price,
 *       test, per probe, in the array('i') segments' buffers).  One
 *       kernel, two callers: the gated SearchPhase, and every park run
 *       whose search stays a generator (traced ones, a fail-stop
 *       plan's victims) -- whenever the run's backend resolved to fast.
 *
 *   WorkPhase, SearchPhase, IdlePhase
 *       Figure 1's per-rank phases as C state machines.  A worker
 *       generator yields the phase object where it would `yield from`
 *       the Python phase; the run loop then drives the phase through
 *       the identical sequence of heap pushes (same times, same
 *       sequence numbers, same event count) and resumes the worker
 *       within the same dispatch when the phase bounces or completes.
 *       WorkPhase is AlgorithmBase.working_phase transliterated: one
 *       Working state for every protocol, taking the switches the
 *       generator reads as constructor arguments (None: off) -- the
 *       idle gate among them, so park mode is no fusion gate.  A
 *       service stream's workload books each visit batch to its
 *       task's drain ledger (ServiceWorkload.batch_expand); that is
 *       one more switch, so the service pool's Working state is this
 *       one too.  SearchPhase is AlgorithmBase.search_phase in both of
 *       its modes: polling rounds, and (`scan` bound) the idle gate's
 *       -- rounds over scan_probe opened only on surplus, parks on
 *       the gate between them -- for the batch variants and the
 *       service pool alike.  For a stock lock-based protocol it
 *       carries out the Stealing state as well (LockBasedAlgorithm.
 *       _claim: lock, re-check, reserve, unlock, transfer); the FIFO
 *       grant and hand-off are written once, for WorkPhase's
 *       own-stack bracket, this claim and the barrier's lock alike.
 *       Under a streamlined policy a search that gives up goes on
 *       into the counted barrier in the same object
 *       (StreamlinedTermination.phase: count in and out under its
 *       lock, one ProbeOrder.one() victim a poll, parks, a steal on
 *       surplus), bouncing only the declaration, a request's service
 *       and a steal it does not claim.  A fail-stop plan binds the
 *       phases on every rank it does not kill.
 *
 * The phase protocol.  Every phase object starts with PHASE_HEAD: the
 * worker inside it, the resume point `state` (0: nobody inside) and a
 * pointer to its type's static PhaseDesc -- name, type object, field
 * table, run function, check hook, enter/exit callback members.  The
 * object lifecycle is written once against the field table (one row
 * per struct member the constructor or the collector must know:
 * {keyword, kind, offset, exact type}; kinds: required object,
 * optional object with None -> NULL, double, long long, flag, buffer
 * export, optional writable int table, float sequence -> double
 * block, run-time-owned object):
 * phase_init walks it over the keyword dict (keywords only; a missing
 * or unknown one is a TypeError naming it; a second __init__ is
 * refused before any member is touched), phase.copy(**kw) binds a new
 * phase to a bound one's members with the keywords' replaced (how a
 * binder makes one phase a rank), phase_traverse, phase_clear and
 * phase_dealloc walk it again.  The run loop knows three
 * operations:
 *
 *   phase_start   a Process yielded the phase: bind the worker and run
 *                 the enter callback -- or, on a re-yield after a
 *                 bounce, check it is the same worker -- then step.
 *   desc->run     step: drive the state machine from a resume point
 *                 until it parks on a heap push or an event, bounces a
 *                 value to the worker, or finishes.
 *   phase_finish  sync now/_seq, run the exit callback, resume the
 *                 worker with None.
 *
 * A *_run function is the only per-phase code: a new phase is a struct
 * beginning with PHASE_HEAD, a field table, a descriptor and a step
 * function whose resume point 0 is the fresh start.
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
#include <math.h>

/* ------------------------------------------------------------------ */
/* configured state                                                   */
/* ------------------------------------------------------------------ */

static PyTypeObject *TimeoutType;
static PyTypeObject *SimEventType;
static PyTypeObject *ProcessType;
static PyTypeObject *SharedVarType;
static PyTypeObject *FifoLockType;
static PyTypeObject *GlobalLockType;
static PyTypeObject *SplitStackType;
static PyObject *SimulationError;
static PyObject *Cancelled;

/* interned attribute/dict keys */
static PyObject *s_now, *s_seq, *s_events_processed, *s_live_processes,
    *s_heap, *s_max_events, *s_limit_error, *s_succeed, *s_fire_m,
    *s_nodes_visited, *s_reacquires, *s_releases, *s_cancels,
    *s_waiters_key, *s_probes, *s_rng, *s_getrandbits, *s_todo, *s_items,
    *s_m, *s_value, *s_note, *s_steal_attempts, *s_steals_ok,
    *s_chunks_stolen, *s_nodes_stolen, *s_in_flight_nodes, *s_n_surplus,
    *s_n_active, *s_park, *s_abandon, *s_enter, *s_barrier_entries,
    *s_barrier_exits, *s_count, *s_alive, *s_announcer, *s_terminated,
    *s_counted, *s_lock, *s_declare, *s_recover;

/* slot offsets (T_OBJECT_EX members of the configured classes) */
static Py_ssize_t off_t_delay, off_t_value;
static Py_ssize_t off_e_fired, off_e_scheduled, off_e_value, off_e_waiters;
static Py_ssize_t off_p_body, off_p_done, off_p_alive, off_p_name;
static Py_ssize_t off_f_locked, off_f_queue, off_f_acq, off_f_cacq,
    off_f_busy, off_f_acqat, off_f_ev_name;
static Py_ssize_t off_g_fifo, off_g_holder, off_g_pending;
static Py_ssize_t off_st_local, off_st_shared, off_st_pushes, off_st_pops,
    off_st_released, off_st_reacquired, off_st_stolen;
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

/* Push (t, ++seq, proc, value) minting a fresh time float. */
static int
rc_push(RunCtx *rc, double t, PyObject *proc, PyObject *value)
{
    PyObject *tf = PyFloat_FromDouble(t);
    int r;
    if (tf == NULL)
        return -1;
    r = rc_push_obj(rc, tf, proc, value);
    Py_DECREF(tf);
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
/* the phase protocol                                                 */
/* ------------------------------------------------------------------ */

struct PhaseDesc;

/* What every phase object starts with.  `desc` is NULL until __init__
 * has succeeded; `state` is 0 while no worker is inside the phase and
 * otherwise the resume point of the type's run function. */
#define PHASE_HEAD \
    PyObject_HEAD \
    const struct PhaseDesc *desc; \
    PyObject *worker;         /* the suspended Process, while running  */ \
    int state;

typedef struct { PHASE_HEAD } PhaseHead;

/* One row per struct member the constructor or the collector must
 * know about.  Members no row names start zeroed and belong to the
 * run function alone. */
enum {
    F_OBJ,      /* any object (strong reference)                       */
    F_OPT,      /* any object; None is stored as NULL                  */
    F_RUNTIME,  /* object the run function owns: not a keyword, but
                 * traversed and cleared with the others               */
    F_DOUBLE,   /* float -> double                                     */
    F_LONG,     /* int -> long long                                    */
    F_FLAG,     /* truth value -> int                                  */
    F_BUFFER,   /* bytes-like -> Py_buffer export held for life        */
    F_TABLE,    /* None, or a writable array('i') -> the same          */
    F_DOUBLES   /* sequence of float -> DoubleVec                      */
};
#define HOLDS_OBJECT(kind) ((kind) <= F_RUNTIME)

typedef struct {
    const char *name;       /* constructor keyword; NULL ends a table  */
    int kind;
    Py_ssize_t off;         /* of the member in the type's struct      */
    PyTypeObject *exact;    /* F_OBJ / F_OPT: the one type accepted    */
    PyObject *key;          /* `name` interned, at module init         */
} PhaseField;

typedef struct {
    double *v;              /* one PyMem block                         */
    Py_ssize_t n;
} DoubleVec;

typedef struct PhaseDesc {
    const char *name;       /* "WorkPhase": module attribute, errors   */
    PyTypeObject *type;
    PhaseField *fields;
    /* Drive the state machine from resume point `entry` (0: a fresh
     * start) until it parks on a heap push or an event registration,
     * bounces a value to the worker, or finishes. */
    int (*run)(PhaseHead *self, RunCtx *rc, PyObject *time_obj, int entry);
    /* What the table cannot state -- bounds, rules across members,
     * run-time seeds: NULL, or the complaint for a ValueError. */
    const char *(*check)(PhaseHead *self);
} PhaseDesc;

static void phase_dealloc(PyObject *self);
/* The three phase types are the only ones with this destructor, and
 * none of them can be subclassed. */
#define IS_PHASE(o) (Py_TYPE(o)->tp_dealloc == phase_dealloc)

static int dispatch_send(RunCtx *rc, PyObject *proc, PyObject *value,
                         PyObject *time_obj);
static int phase_finish(PhaseHead *ph, RunCtx *rc, PyObject *time_obj);

/* ------------------------------------------------------------------ */
/* the phase types                                                    */
/* ------------------------------------------------------------------ */

/* A MaterializedTree's preorder arrays: array('i') exports held for
 * the owner's lifetime (the arrays are never resized or rewritten). */
typedef struct {
    PyObject *tree;           /* names itself when a handle is bad     */
    Py_buffer delta, size;    /* tree.delta, tree.size                 */
} TreeView;

/* WorkPhase: Figure 1's Working state, under no fault class but
 * fail-stop and slowdown (no stall or stale draw to roll) -- the members
 * behind AlgorithmBase._build_c_phase.  What a protocol changes is
 * three switches, each a member group that is NULL when off, exactly
 * the ones AlgorithmBase.working_phase reads before its loop; the idle
 * gate rides on (b), as `gate = self._gate` does there.  A fourth, (e),
 * is the search space's: what explore_batch's scan books per batch. */
enum {
    WP_IDLE = 0,        /* not running (no worker bound)               */
    WP_AFTER_VISIT,     /* woke from the visit-cost timeout            */
    WP_LOCK_WAIT,       /* woke from the lock round-trip timeout       */
    WP_GRANTED,         /* woke holding the lock (zero-Timeout or ev)  */
    WP_RESET_WAIT,      /* woke from the barrier-reset write timeout   */
    WP_SVC_LOOP         /* bounced to the worker from the poll point   */
};

typedef struct {
    PHASE_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *local;          /* list: stack.local                     */
    PyObject *shared;         /* list: stack.shared                    */
    PyObject *shared_append;  /* bound shared.append                   */
    PyObject *shared_pop;     /* bound shared.pop                      */
    PyObject *stack;          /* SplitStack (counter slots)            */
    PyObject *st_dict;        /* ThreadStats.__dict__                  */
    PyObject *timer;          /* the rank's StateTimer: enter_state's  */
    PyObject *states;         /*   (WORKING, SEARCHING) around the loop */
    TreeView tv;              /* the MaterializedTree's arrays         */
    DoubleVec vt;             /* visit cost per batch size [0..limit]  */
    long long chunk;
    long long thresh;
    long long limit;
    /* (a) the poll point: a request variable, or a mailbox */
    PyObject *req_slot;       /* SharedVar request[rank]               */
    PyObject *poll;           /* bound taker of one arrived message    */
    PyObject *pending;        /* list: the mailbox heap `poll` pops    */
    /* (b) the owner publishes its chunk count -- and, under park,
     * tells the idle gate where that moves the rank's category */
    PyObject *wa;             /* SharedVar work_avail[rank]            */
    PyObject *no_work;        /* sentinel poked into wa at phase exit  */
    PyObject *gate;           /* IdleGate                              */
    PyObject *gate_cat;       /* list: gate._cat                       */
    PyObject *rank;           /* int: this rank, as gate.note takes it */
    /* (c) stack moves run under the own-stack lock */
    PyObject *fifo;           /* FifoLock                              */
    double lock_to;           /* lock round trip; < 0 means free       */
    PyObject *barrier_dict;   /* CancelableBarrier.__dict__: a release
                               * resets it (the after-release hook)    */
    double reset_cost;        /* barrier-reset write cost              */
    double home_occupancy;    /* barrier cancel stagger                */
    /* (e) the tree is a service stream's task forest: each visit
     * batch is booked to its task's drain ledger ((d), the after-move
     * hook, has no compiled form) */
    Py_buffer task_of;        /* position -> task, -1: the bootstrap   */
    Py_buffer outstanding;    /* task -> unvisited descriptors         */
    Py_buffer task_nodes;     /* task -> nodes visited                 */
    PyObject *drained;        /* callable(task): its count reached 0   */
    /* runtime */
    int releasing;            /* the move in hand: release / reacquire */
} WorkPhaseObject;

/* SearchPhase: AlgorithmBase.search_phase, the victim-probe loop
 * shared (modulo the request-variable poll) by the lock-based and
 * distmem search phases and the service pool's, in both of its modes:
 * polling (whole shuffled rounds) and, with `scan` bound, the idle
 * gate's (a round only over visible surplus, probed through the
 * scan_probe kernel, parking on the gate in between).  Probes,
 * probe-cost accounting, backoff and parking run in C.  With the
 * claim members bound (a stock lock-based protocol) a steal attempt
 * runs in C too; otherwise it -- and, for distmem, every
 * pending-request service -- is bounced to the suspended worker
 * generator, which runs the Python try_steal/service_request protocol
 * and re-yields the phase.  With `sbarrier` bound (a streamlined
 * policy) a search that gives up goes on into the counted barrier,
 * StreamlinedTermination.phase: the entry and leave brackets under
 * the barrier's lock, one ProbeOrder.one() victim a poll, parks on
 * the gate, and a steal on surplus (claimed here or bounced as
 * above); only the declaration is bounced, as "declare" (last in) or
 * "recover" (a death filled the barrier). */
enum {
    SP_IDLE = 0,        /* not running (no worker bound)               */
    SP_SVC_TOP,         /* bounced to service a request (round top)    */
    SP_PRE_STEAL,       /* woke from the pre-steal probe-cost timeout  */
    SP_POST_STEAL,      /* re-yielded after a failed steal attempt     */
    SP_END_COST,        /* woke from the end-of-round cost timeout     */
    SP_BACKOFF,         /* woke from the between-rounds backoff or the
                         * post-park resume delay                      */
    SP_PARKED,          /* gate: woke from gate.park(rank)             */
    SP_WOKE_SVC,        /* gate: bounced to service a request on wake  */
    SP_LOCK_WAIT,       /* claim: woke from the lock round trip        */
    SP_GRANTED,         /* claim: woke holding the victim's lock       */
    SP_HELD,            /* claim: woke from a reference under the lock */
    SP_UNLOCKED,        /* claim: woke from the unlock reference       */
    SP_LANDED,          /* claim: woke from the chunk transfer         */
    SB_LOCK_WAIT,       /* barrier: woke from the lock round trip      */
    SB_GRANTED,         /* barrier: woke holding the barrier lock      */
    SB_UNLOCKED,        /* barrier: woke from the unlock reference     */
    SB_SVC,             /* barrier: bounced to service a request (top) */
    SB_PROBED,          /* barrier: woke from one probe's cost         */
    SB_POLL,            /* barrier: woke from the poll timeout or the
                         * post-park resume delay                      */
    SB_PARKED,          /* barrier: woke from gate.park(rank)          */
    SB_WOKE_SVC,        /* barrier: bounced to service a request on
                         * wake                                        */
    SB_DECLARED         /* barrier: bounced the declaration            */
};

/* The steal amounts a claim computes (ws.registry STEAL_AMOUNTS). */
enum { TAKE_ONE, TAKE_HALF, TAKE_ALL };

typedef struct {
    PHASE_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *st_dict;        /* ThreadStats.__dict__ (probes)         */
    PyObject *segments;       /* polling: bound ProbeOrder.segments, a */
    PyObject *getrandbits;    /*   round's fresh array('i') victims,   */
                              /*   shuffled in place over this, probed */
                              /*   in turn                             */
    PyObject *bounds;         /* net.ref_cost_bounds(rank), parsed     */
                              /*   below by search_check: a victim     */
    long long node_lo;        /*   in [node_lo, node_hi) costs c_local */
    long long node_hi;        /*   to reference, any other c_remote    */
    double c_local;
    double c_remote;
    PyObject *slots;          /* list of SharedVar: work_avail         */
    PyObject *req_slot;       /* SharedVar request[rank]; NULL: lock   */
    double backoff_min;
    double backoff_factor;
    double backoff_max;
    double slow;              /* ctx._slow compute-cost multiplier     */
    int persist;              /* persist_while_working                 */
    PyObject *rank;           /* int: this rank                        */
    PyObject *gate;           /* IdleGate: told of a claim's advert    */
    PyObject *gate_cat;       /*   (its _cat list); with `scan`, its   */
    PyObject *scan;           /*   counters gate the rounds, each a    */
                              /*   ProbeOrder.scan(); NULL: polling    */
    /* the claim, LockBasedAlgorithm._claim: NULL locks, the bounce */
    PyObject *locks;          /* list of GlobalLock: stack_locks       */
    PyObject *stacks;         /* list of SplitStack                    */
    PyObject *algo_dict;      /* the algorithm's __dict__ (in flight)  */
    PyObject *steal;          /* str: the steal amount's registry key  */
    PyObject *claim_costs;    /* net.steal_cost_terms(), parsed below  */
    PyObject *states;         /* (STEALING, SEARCHING)                 */
    PyObject *timer;          /* the rank's StateTimer: the claim's    */
                              /*   timer.enter(state, now)             */
    /* the streamlined barrier, StreamlinedTermination.phase: NULL
     * sbarrier, the search ends where it gives up */
    PyObject *sbarrier;       /* StreamlinedBarrier.__dict__           */
    PyObject *rng;            /* the rank's StreamRng (ProbeOrder.one; */
                              /*   read only by the barrier)           */
    PyObject *barrier_state;  /* BARRIER, for timer.enter              */
    PyObject *barrier_lock_costs;  /* lock_cost from the home (rank 0) */
                              /*   itself, its node, any other node    */
    double poll_min;          /* BARRIER_POLL_MIN / _MAX               */
    double poll_max;
    int recover;              /* a fault plan: a death may fill it     */
    /* runtime */
    PyObject *victims;        /* current round's shuffled segments     */
    PyObject *cur_scan;       /* gate: the round's ProbeScan           */
    Py_ssize_t seg, idx;      /* segment probed, its next victim       */
    long long cur_victim;     /* victim across the pre-steal timeout   */
    double cost_acc;
    double backoff;
    double t_park;            /* gate: when the rank parked            */
    long long probes_acc;     /* st.probes delta, flushed at yields    */
    int any_working;
    long long me;             /* rank, and the claim's parsed members: */
    int take;                 /*   TAKE_*                              */
    double lock_self, lock_node, lock_remote;   /* lock_cost branches  */
    double xfer_lat_node, xfer_bw_node, xfer_lat, xfer_bw, xfer_pen;
    long long desc_bytes;     /*   chunk_transfer's terms              */
    PyObject *nodes;          /* reserved, across unlock and transfer  */
    long long chunks;         /* how many chunks they came in          */
    int queued;               /* the grant came through the queue      */
    PyObject *b_lock;         /* sbarrier's lock, checked              */
    PyObject *draw;           /* rng.getrandbits, read at the first    */
                              /*   draw (that seeds the stream)        */
    double b_lock_cost;       /* ctx.lock / ctx.unlock of b_lock       */
    double b_unlock_cost;
    double poll;              /* the barrier's poll period             */
    int in_barrier;           /* from the entry to the end of the run  */
                              /*   or a steal that lands work          */
    int b_entering;           /* the lock bracket in hand: enter/leave */
    int b_last;               /* enter found the barrier full          */
} SearchPhaseObject;

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
    PHASE_HEAD
    /* configuration (strong references; immutable after init) */
    PyObject *pending;        /* list MsgWorld._pending[rank]          */
    double backoff_min;
    double backoff_factor;
    double backoff_max;
    double slow;              /* ctx._slow compute-cost multiplier     */
    /* runtime */
    double backoff;
} IdlePhaseObject;

/* ------------------------------------------------------------------ */
/* the Working state's moves                                          */
/* ------------------------------------------------------------------ */

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

/* The check that opens ServiceWorkload.batch_expand: a stack holds one
 * task at a time, and the tasks tile the layout in order, so the
 * lowest and the highest position in `local` must be of one task.
 * Returns it (-1: the bootstrap leaf), or -2 with an error set -- the
 * Python scan's own, which is run to raise it by name. */
static Py_ssize_t
work_batch_task(WorkPhaseObject *w)
{
    const int *task_of = w->task_of.buf;
    const Py_ssize_t n_nodes = w->task_of.len / (Py_ssize_t)sizeof(int);
    const Py_ssize_t n_tasks = w->outstanding.len / (Py_ssize_t)sizeof(int);
    Py_ssize_t lo = n_nodes, hi = -1, i;
    for (i = PyList_GET_SIZE(w->local); i-- > 0;) {
        PyObject *node = PyList_GET_ITEM(w->local, i);
        Py_ssize_t a = PyLong_CheckExact(node) ? PyLong_AsSsize_t(node) : -1;
        if (a < 0 || a >= n_nodes) {
            hi = -1;
            break;
        }
        if (a < lo)
            lo = a;
        if (a > hi)
            hi = a;
    }
    if (hi >= 0 && task_of[lo] == task_of[hi] && task_of[lo] >= -1
            && task_of[lo] < n_tasks)
        return task_of[lo];
    PyErr_Clear();
    Py_XDECREF(PyObject_CallMethod(w->tv.tree, "batch_expand", "(OLL)",
                                   w->local, w->limit, w->thresh));
    if (!PyErr_Occurred())
        PyErr_SetString(SimulationError, "fastpath: bad task stack");
    return -2;
}

/* The ledger that closes ServiceWorkload.batch_expand: task_nodes[tid]
 * += n; outstanding[tid] += pushed - n; at zero the task has drained,
 * and runtime.on_task_drained(tid) schedules its deferred accounting
 * -- so now/_seq are synced out and back, as for gate.note. */
static int
work_book(WorkPhaseObject *w, RunCtx *rc, PyObject *time_obj,
          Py_ssize_t tid, long long n, long long pushed)
{
    int *left = (int *)w->outstanding.buf + tid;
    PyObject *r;
    ((int *)w->task_nodes.buf)[tid] += (int)n;
    if ((*left += (int)(pushed - n)) != 0)
        return 0;
    if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
        return -1;
    r = PyObject_CallFunction(w->drained, "n", tid);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return rc_reload_seq(rc);
}

/* SplitStack.release: released = local[:chunk]; del local[:chunk];
 * shared.append(released); released_nodes += chunk. */
static int
work_release(WorkPhaseObject *w)
{
    PyObject *released = PyList_GetSlice(w->local, 0, w->chunk);
    PyObject *r;
    if (released == NULL)
        return -1;
    if (PyList_SetSlice(w->local, 0, w->chunk, NULL) < 0) {
        Py_DECREF(released);
        return -1;
    }
    r = PyObject_CallOneArg(w->shared_append, released);
    Py_DECREF(released);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return slot_add_long(w->stack, off_st_released, w->chunk);
}

/* SplitStack.reacquire: got = shared.pop(); local[0:0] = got;
 * reacquired_nodes += len(got).  The shared region is not empty. */
static int
work_reacquire(WorkPhaseObject *w)
{
    PyObject *got = PyObject_CallNoArgs(w->shared_pop);
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
    if (PyList_SetSlice(w->local, 0, 0, got) < 0) {
        Py_DECREF(got);
        return -1;
    }
    Py_DECREF(got);
    return slot_add_long(w->stack, off_st_reacquired, ngot);
}

/* AlgorithmBase._advertise(rank, value), no stale fault: wa.poke(value) --
 * writes += 1, then value = v -- and, under park, gate.note(rank,
 * value).  IdleGate.note's own no-transition test (`cat == old`, or a
 * dead rank) is made here against gate._cat, so Python is entered only
 * where the rank's category moves -- which may fire parked ranks'
 * events, hence now/_seq synced out and back as timer_enter does. */
static int
advertise(RunCtx *rc, PyObject *time_obj, PyObject *wa, PyObject *gate,
          PyObject *gate_cat, PyObject *rank, PyObject *value /* stolen */)
{
    PyObject *r;
    Py_ssize_t at;
    long long v;
    long old;
    if (slot_add_long(wa, off_w_writes, 1) < 0) {
        Py_DECREF(value);
        return -1;
    }
    slot_store(wa, off_w_value, value);  /* the slot owns it now */
    if (gate == NULL)
        return 0;
    at = PyLong_AsSsize_t(rank);
    if (at < 0 || at >= PyList_GET_SIZE(gate_cat)) {
        if (!PyErr_Occurred())
            PyErr_SetString(SimulationError, "fastpath: rank not in gate");
        return -1;
    }
    v = PyLong_AsLongLong(value);
    old = PyLong_AsLong(PyList_GET_ITEM(gate_cat, at));
    if (PyErr_Occurred())
        return -1;
    if (old == (v > 0 ? 1 : (v == 0 ? 0 : -1)) || old == -2 /* DEAD */)
        return 0;
    if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
        return -1;
    Py_INCREF(value);
    r = PyObject_CallMethodObjArgs(gate, s_note, rank, value, NULL);
    Py_DECREF(value);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return rc_reload_seq(rc);
}

/* The Working state's advertise: `value` NULL is len(shared).  A no-op
 * without switch (b). */
static int
work_advertise(WorkPhaseObject *w, RunCtx *rc, PyObject *time_obj,
               PyObject *value /* borrowed */)
{
    if (w->wa == NULL)
        return 0;
    if (value != NULL) {
        Py_INCREF(value);
    } else {
        Py_ssize_t shared_n = PyObject_Length(w->shared);
        if (shared_n < 0
                || (value = PyLong_FromSsize_t(shared_n)) == NULL)
            return -1;
    }
    return advertise(rc, time_obj, w->wa, w->gate, w->gate_cat, w->rank,
                     value);
}

/* A phase `ph` takes `fifo` (FifoLock.acquire, then the generators'
 * yield).  Free: locked = True; acquisitions += 1; _acquired_at = now;
 * and a same-time resumption (the fired grant event, `yield _T0`).
 * Held: contended_acquisitions += 1 and a fresh SimEvent appended to
 * fifo._queue with the phase as its waiter, resumed when the holder's
 * fifo_release hands the lock on.  0: granted; 1: queued, the event in
 * *queued (borrowed: the queue holds it); -1: error. */
static int
fifo_acquire(RunCtx *rc, PyObject *time_obj, PhaseHead *ph, PyObject *fifo,
             PyObject **queued)
{
    PyObject *ev, *waiters;
    if (SLOT(fifo, off_f_locked) != Py_True) {
        Py_INCREF(Py_True);
        slot_store(fifo, off_f_locked, Py_True);
        if (slot_add_long(fifo, off_f_acq, 1) < 0)
            return -1;
        Py_INCREF(time_obj);
        slot_store(fifo, off_f_acqat, time_obj);
        return rc_push_obj(rc, time_obj, (PyObject *)ph, Py_None);
    }
    ev = PyObject_CallFunctionObjArgs((PyObject *)SimEventType, rc->sim,
                                      SLOT(fifo, off_f_ev_name), NULL);
    if (ev == NULL)
        return -1;
    waiters = SLOT(ev, off_e_waiters);
    if (slot_add_long(fifo, off_f_cacq, 1) < 0
            || PyList_Append(SLOT(fifo, off_f_queue), ev) < 0
            || waiters == NULL || !PyList_CheckExact(waiters)
            || PyList_Append(waiters, (PyObject *)ph) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(SimulationError,
                            "fastpath: bad event waiter list");
        Py_DECREF(ev);
        return -1;
    }
    *queued = ev;
    Py_DECREF(ev);
    return 1;
}

/* FifoLock.release: busy_time += now - _acquired_at, then hand off to
 * the first queued waiter (acquisitions += 1; _acquired_at = now;
 * queue.pop(0).succeed()) or leave the lock free. */
static int
fifo_release(RunCtx *rc, PyObject *time_obj, PyObject *fifo)
{
    PyObject *queue = SLOT(fifo, off_f_queue);
    PyObject *acqat = SLOT(fifo, off_f_acqat);
    PyObject *ev, *r;
    double at;
    if (acqat == NULL || queue == NULL || !PyList_CheckExact(queue)) {
        PyErr_SetString(SimulationError, "fastpath: lock state");
        return -1;
    }
    at = PyFloat_AsDouble(acqat);
    if ((at == -1.0 && PyErr_Occurred())
            || slot_add_double(fifo, off_f_busy, rc->now - at) < 0)
        return -1;
    if (PyList_GET_SIZE(queue) == 0) {
        Py_INCREF(Py_False);
        slot_store(fifo, off_f_locked, Py_False);
        return 0;
    }
    if (slot_add_long(fifo, off_f_acq, 1) < 0)
        return -1;
    Py_INCREF(time_obj);
    slot_store(fifo, off_f_acqat, time_obj);
    ev = PyList_GET_ITEM(queue, 0);
    Py_INCREF(ev);
    if (PyList_SetSlice(queue, 0, 1, NULL) < 0
            || rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0) {
        Py_DECREF(ev);
        return -1;
    }
    r = PyObject_CallMethodNoArgs(ev, s_succeed);
    Py_DECREF(ev);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return rc_reload_seq(rc);
}

/* `req_slot.value is not None`: a thief's request is pending in the
 * rank's request variable.  1 / 0, or -1 with an error set. */
static int
req_pending(PyObject *req_slot)
{
    PyObject *rv = SLOT(req_slot, off_w_value);
    if (rv == NULL) {
        PyErr_SetString(SimulationError, "fastpath: request slot unset");
        return -1;
    }
    return rv != Py_None;
}

/* The MsgWorld._take_delivered fast path, inverted: the mailbox heap's
 * head has arrived by `now`, so an iprobe would pop it.  1 / 0, or -1
 * with an error set. */
static int
mailbox_ready(PyObject *pending, double now)
{
    PyObject *head;
    double at;
    if (PyList_GET_SIZE(pending) == 0)
        return 0;
    head = PyList_GET_ITEM(pending, 0);
    if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) < 1) {
        PyErr_SetString(SimulationError, "fastpath: bad mailbox");
        return -1;
    }
    at = PyFloat_AsDouble(PyTuple_GET_ITEM(head, 0));
    if (at == -1.0 && PyErr_Occurred())
        return -1;
    return at <= now;
}

/* Bounce `value` to the suspended worker, which runs the Python
 * protocol method it names and re-yields the phase; the step function
 * then resumes at `resume`. */
static int
phase_bounce(PhaseHead *ph, RunCtx *rc, PyObject *value, PyObject *time_obj,
             int resume)
{
    ph->state = resume;
    if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
        return -1;
    return dispatch_send(rc, ph->worker, value, time_obj);
}

/* enter_state(ctx, state): timer.enter(state, now), with now/_seq
 * synced out. */
static int
timer_enter(RunCtx *rc, PyObject *time_obj, PyObject *timer, PyObject *state)
{
    PyObject *r;
    if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0
            || (r = PyObject_CallMethodObjArgs(timer, s_enter, state,
                                               time_obj, NULL)) == NULL)
        return -1;
    Py_DECREF(r);
    return rc_reload_seq(rc);
}

/* ------------------------------------------------------------------ */
/* the three state machines                                           */
/* ------------------------------------------------------------------ */

/* Drive the Working state -- AlgorithmBase.working_phase, statement for
 * statement -- until it parks on a heap push or an event registration,
 * bounces a pending request (True) or a taken message to the worker,
 * or completes.  The worker's `yield phase` receives None on
 * completion and the bounced value otherwise; it serves that in Python
 * and re-yields the phase, which resumes mid-loop.  Nothing below asks
 * which protocol is running, only whether a switch's members are NULL;
 * the phase enters and leaves `states` on the rank's timer itself. */
static int
work_run(PhaseHead *self, RunCtx *rc, PyObject *time_obj, int entry)
{
    WorkPhaseObject *w = (WorkPhaseObject *)self;
    int hit;

    switch (entry) {
    case WP_IDLE:
        /* self.enter_state(ctx, WORKING); self._advertise(rank,
         * len(shared)) */
        if (timer_enter(rc, time_obj, w->timer,
                        PyTuple_GET_ITEM(w->states, 0)) < 0
                || work_advertise(w, rc, time_obj, NULL) < 0)
            return -1;
        goto poll;
    case WP_AFTER_VISIT: goto after_visit;
    case WP_LOCK_WAIT:   goto lock_grant;
    case WP_GRANTED:     goto granted;
    case WP_RESET_WAIT:  goto reset_body;
    case WP_SVC_LOOP:
        /* The one place the poll points differ: the generator probes a
         * mailbox in a `while`, so it is probed again; a request slot
         * is served once and falls through to the stack. */
        if (w->poll != NULL)
            goto poll;
        goto stack_check;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

poll:
    if (w->req_slot != NULL) {
        /* if req_slot.value is not None: yield from service_request */
        if ((hit = req_pending(w->req_slot)) < 0)
            return -1;
        if (hit)
            return phase_bounce(self, rc, Py_True, time_obj, WP_SVC_LOOP);
    } else if (w->poll != NULL) {
        /* `while mailbox and mailbox[0][0] <= sim.now and (msg :=
         * take()) is not None`: the arrival test runs inline, so the
         * overwhelmingly common empty poll costs no Python call. */
        if ((hit = mailbox_ready(w->pending, rc->now)) < 0)
            return -1;
        if (hit) {
            PyObject *msg;
            int r;
            if (rc_write_now(rc, time_obj) < 0 || rc_write_seq(rc) < 0)
                return -1;
            msg = PyObject_CallNoArgs(w->poll);
            if (msg == NULL)
                return -1;
            if (msg != Py_None) {
                w->state = WP_SVC_LOOP;
                r = dispatch_send(rc, w->worker, msg, time_obj);
                Py_DECREF(msg);
                return r;
            }
            Py_DECREF(msg);
        }
    }

stack_check:
    if (PyList_GET_SIZE(w->local) == 0) {
        Py_ssize_t shared_n = PyObject_Length(w->shared);
        if (shared_n < 0)
            return -1;
        if (shared_n == 0)
            goto phase_exit;
        w->releasing = 0;
        goto move;
    }
    {
        /* n = explore_batch(rank): batch_expand and the three counters
         * it keeps; yield vt[n].  (n == 0 needs an empty local region,
         * handled above; like the generator, no yield then.) */
        long long n = 0, pushed = 0;
        Py_ssize_t tid = -1;
        if (w->drained != NULL && (tid = work_batch_task(w)) < -1)
            return -1;
        if (c_batch_expand(&w->tv, w->local, w->limit, w->thresh,
                           &n, &pushed) < 0
                || (tid >= 0
                    && work_book(w, rc, time_obj, tid, n, pushed) < 0)
                || slot_add_long(w->stack, off_st_pops, n) < 0
                || slot_add_long(w->stack, off_st_pushes, pushed) < 0
                || dict_add_long(w->st_dict, s_nodes_visited, n) < 0)
            return -1;
        if (n > 0) {
            w->state = WP_AFTER_VISIT;
            return rc_push(rc, rc->now + w->vt.v[n], (PyObject *)w, Py_None);
        }
    }
after_visit:
    if (PyList_GET_SIZE(w->local) < w->thresh)
        goto poll;
    w->releasing = 1;

    /* One stack move per pass: acquire, move, publish, unlock,
     * after-release.  Releases repeat while surplus remains; a
     * reacquire goes back to the poll point. */
move:
    if (w->fifo == NULL)
        goto granted;
    if (w->lock_to >= 0.0) {
        /* yield lock_to */
        w->state = WP_LOCK_WAIT;
        return rc_push(rc, rc->now + w->lock_to, (PyObject *)w, Py_None);
    }
    /* FALLTHROUGH */
lock_grant:
    {
        /* resumed at once, or when the holder's release fires us */
        PyObject *ev;
        w->state = WP_GRANTED;
        return fifo_acquire(rc, time_obj, self, w->fifo, &ev) < 0 ? -1 : 0;
    }

granted:
    if (w->releasing) {
        if (work_release(w) < 0)
            return -1;
    } else {
        /* `shared` is re-checked under the lock: a thief queued ahead
         * of us may have taken the last chunk. */
        Py_ssize_t shared_n = PyObject_Length(w->shared);
        if (shared_n < 0)
            return -1;
        if (shared_n == 0)
            goto unlock;  /* nothing moved: nothing to publish */
        if (work_reacquire(w) < 0)
            return -1;
    }
    if (work_advertise(w, rc, time_obj, NULL) < 0
            || (!w->releasing
                && dict_add_long(w->st_dict, s_reacquires, 1) < 0))
        return -1;
unlock:
    /* The unlock reference is free (an own-stack lock is homed at its
     * rank), so no yield separates the move from the hand-off. */
    if (w->fifo != NULL && fifo_release(rc, time_obj, w->fifo) < 0)
        return -1;
    if (!w->releasing)
        goto poll;
    /* st.releases += 1 (after the unlock, as in the generator) */
    if (dict_add_long(w->st_dict, s_releases, 1) < 0)
        return -1;
    if (w->barrier_dict == NULL)
        goto after_release;
    /* yield from after_release(ctx): CancelableBarrier.reset */
    if (w->reset_cost > 0.0) {
        /* yield Timeout(cost): the remote cancellation-flag write */
        w->state = WP_RESET_WAIT;
        return rc_push(rc, rc->now + w->reset_cost, (PyObject *)w, Py_None);
    }
    /* FALLTHROUGH */
reset_body:
    {
        /* barrier.cancels += 1; wake every waiter with a staggered
         * CANCELLED succeed; clear the waiter list. */
        PyObject *waiters;
        Py_ssize_t wn, i;
        if (dict_add_long(w->barrier_dict, s_cancels, 1) < 0)
            return -1;
        waiters = PyDict_GetItemWithError(w->barrier_dict, s_waiters_key);
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
                delay = PyFloat_FromDouble((double)i * w->home_occupancy);
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
    }
after_release:
    if (PyList_GET_SIZE(w->local) >= w->thresh)
        goto move;
    goto poll;

phase_exit:
    /* self._advertise(rank, NO_WORK); self.enter_state(ctx, SEARCHING) */
    if (work_advertise(w, rc, time_obj, w->no_work) < 0
            || timer_enter(rc, time_obj, w->timer,
                           PyTuple_GET_ITEM(w->states, 1)) < 0)
        return -1;
    /* Resume the worker generator at its `yield phase` suspension
     * within this same dispatch -- exactly where the generator
     * version's `yield from working_phase(ctx)` falls through. */
    return phase_finish(self, rc, time_obj);
}

/* n.bit_length() */
static int
bit_length(long n)
{
    int k = 0;
    while (n > 0) {
        k++;
        n >>= 1;
    }
    return k;
}

/* random.Random._randbelow_with_getrandbits, draw-for-draw: k =
 * n.bit_length() bits per attempt (`kk`, as a Python int), rejecting
 * r >= n.  Calling the (C-implemented) bound getrandbits keeps the
 * Mersenne Twister state bit-identical to the pure path's draws.
 * n >= 1; returns -1 on error (check PyErr_Occurred -- valid draws are
 * never negative). */
static long
c_draw(PyObject *getrandbits, PyObject *kk, long n)
{
    for (;;) {
        PyObject *ro = PyObject_CallOneArg(getrandbits, kk);
        long r;
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

/* Export a victim segment (ProbeOrder.segments: an array('i') of
 * ranks) writable into `view`.  0, or -1 with a TypeError for anything
 * else -- a list, an array of another type code. */
static int
segment_view(PyObject *seg, Py_buffer *view)
{
    if (PyObject_GetBuffer(seg, view, PyBUF_WRITABLE | PyBUF_FORMAT) < 0)
        PyErr_Clear();
    else if (view->itemsize == sizeof(int) && strcmp(view->format, "i") == 0)
        return 0;
    else
        PyBuffer_Release(view);
    PyErr_Format(PyExc_TypeError, "fastpath: a victim segment must be an "
                 "array('i'), not %.100s", Py_TYPE(seg)->tp_name);
    return -1;
}
#define SEG_LEN(view) ((view).len / (Py_ssize_t)sizeof(int))

/* random.Random.shuffle, draw-for-draw: Fisher-Yates from the top,
 * j = _randbelow(i + 1) per position (`kk` rebuilt only where the bit
 * length of i + 1 changes). */
static int
c_shuffle(int *v, Py_ssize_t n, PyObject *getrandbits)
{
    PyObject *kk = NULL;
    Py_ssize_t i;
    int k = 0;
    for (i = n - 1; i >= 1; i--) {
        int t = v[i];
        long j;
        if (bit_length((long)i + 1) != k) {
            k = bit_length((long)i + 1);
            Py_XSETREF(kk, PyLong_FromLong(k));
        }
        if (kk == NULL || (j = c_draw(getrandbits, kk, (long)i + 1)) < 0)
            break;
        v[i] = v[j];
        v[j] = t;
    }
    Py_XDECREF(kk);
    return i >= 1 ? -1 : 0;
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

/* ProbeOrder.cycle(): take the round's fresh victim segments and
 * Fisher-Yates each array('i') in place, consuming the rank's Mersenne
 * Twister exactly as `shuffled(seg0) + shuffled(seg1) + ...` would;
 * the probe loop then reads them one after the other.  Neither call
 * can touch simulator state, so no now/seq sync is needed, and nothing
 * O(n) outlives the round.  The segments' list, or NULL. */
static PyObject *
search_cycle(SearchPhaseObject *sp)
{
    PyObject *segs = PyObject_CallNoArgs(sp->segments);
    Py_ssize_t si;
    if (segs == NULL)
        return NULL;
    if (!PyList_CheckExact(segs)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastpath: segments() must return a list");
        goto fail;
    }
    for (si = 0; si < PyList_GET_SIZE(segs); si++) {
        Py_buffer view;
        int r;
        if (segment_view(PyList_GET_ITEM(segs, si), &view) < 0)
            goto fail;
        r = c_shuffle(view.buf, SEG_LEN(view), sp->getrandbits);
        PyBuffer_Release(&view);
        if (r < 0)
            goto fail;
    }
    return segs;
fail:
    Py_DECREF(segs);
    return NULL;
}

/* ProbeScan.probe, the park victim scan below (with scan_probe). */
static int scan_kernel(PyObject *scan, PyObject *slots, long long node_lo,
                       long long node_hi, double c_local, double c_remote,
                       Py_ssize_t *victim_out, double *cost,
                       Py_ssize_t *n_out);

/* gate.n_surplus or gate.n_active (IdleGate's exact counters, never
 * negative), or -1 with an error set. */
static long long
gate_count(SearchPhaseObject *sp, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(sp->gate, name);
    long long n;
    if (v == NULL)
        return -1;
    n = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return n;
}
#define gate_surplus(sp) gate_count(sp, s_n_surplus)
#define gate_active(sp) gate_count(sp, s_n_active)

/* `yield gate.park(rank)`: register with the gate -- in the event that
 * saw n_surplus == 0, so no wake-up can fall in between -- and wait on
 * the fresh SimEvent it returns (SimEvent() touches no engine state),
 * to resume at `woke`. */
static int
gate_park(SearchPhaseObject *sp, double now, int woke)
{
    PyObject *ev = PyObject_CallMethodOneArg(sp->gate, s_park, sp->rank);
    PyObject *waiters;
    int r;
    if (ev == NULL)
        return -1;
    waiters = Py_TYPE(ev) == SimEventType ? SLOT(ev, off_e_waiters) : NULL;
    if (waiters == NULL || !PyList_CheckExact(waiters)) {
        PyErr_SetString(SimulationError, "fastpath: gate.park() must "
                        "return a SimEvent");
        Py_DECREF(ev);
        return -1;
    }
    sp->t_park = now;
    sp->state = woke;
    r = PyList_Append(waiters, (PyObject *)sp);
    Py_DECREF(ev);
    return r;
}

/* AlgorithmBase._park_resume_delay(t_park, *backoff, now, bmax,
 * factor): the delay to the first tick of the rank's virtual polling
 * cadence at or after `now`; *backoff becomes the one it carries on. */
static double
park_resume_delay(double t_park, double *backoff, double now, double bmax,
                  double factor)
{
    double t = t_park + *backoff;
    double b = *backoff * factor;
    if (b > bmax)
        b = bmax;
    while (t < now) {
        if (b >= bmax) {
            /* capped region: close the gap in one step */
            t += ceil((now - t) / bmax) * bmax;
            break;
        }
        t += b;
        b = b * factor;
        if (b > bmax)
            b = bmax;
    }
    *backoff = b;
    return t > now ? t - now : 0.0;
}

/* -- the claim's members (SearchPhase with `locks` bound) -- */

/* One of a claim's costs by the victim's locality: the thief's own
 * rank, a rank on its node (ref_cost_bounds' range), any other. */
static double
claim_cost(SearchPhaseObject *sp, double self, double node, double remote)
{
    long long v = sp->cur_victim;
    return v == sp->me ? self
        : sp->node_lo <= v && v < sp->node_hi ? node : remote;
}

/* net.shared_ref(rank, victim): a reference to the victim's lock or
 * stack counters. */
static double
claim_ref(SearchPhaseObject *sp)
{
    return claim_cost(sp, 0.0, sp->c_local, sp->c_remote);
}

/* A GlobalLock over a FifoLock, with its `pending` dict. */
static int
glock_ok(PyObject *lk)
{
    return Py_TYPE(lk) == GlobalLockType
        && SLOT(lk, off_g_fifo) != NULL
        && Py_TYPE(SLOT(lk, off_g_fifo)) == FifoLockType
        && SLOT(lk, off_g_pending) != NULL
        && PyDict_CheckExact(SLOT(lk, off_g_pending));
}

/* stack_locks[victim], checked by glock_ok. */
static PyObject *
claim_lock(SearchPhaseObject *sp)
{
    long long v = sp->cur_victim;
    PyObject *lk;
    if (v < 0 || v >= PyList_GET_SIZE(sp->locks)
            || !glock_ok(lk = PyList_GET_ITEM(sp->locks, v))) {
        PyErr_Format(SimulationError, "fastpath: bad stack lock of T%lld", v);
        return NULL;
    }
    return lk;
}

/* ctx.lock(lk) past its round trip: the FIFO grant, resumed at
 * `granted` -- registered in lk.pending across a queued wait. */
static int
glock_acquire(RunCtx *rc, PyObject *time_obj, SearchPhaseObject *sp,
              PyObject *lk, int granted)
{
    PyObject *ev = NULL;
    sp->state = granted;
    sp->queued = fifo_acquire(rc, time_obj, (PhaseHead *)sp,
                              SLOT(lk, off_g_fifo), &ev);
    if (sp->queued < 0)
        return -1;
    return sp->queued
        ? PyDict_SetItem(SLOT(lk, off_g_pending), sp->rank, ev) : 0;
}

/* ... granted: out of lk.pending; lk.holder = rank. */
static int
glock_granted(SearchPhaseObject *sp, PyObject *lk)
{
    if (sp->queued && PyDict_DelItem(SLOT(lk, off_g_pending), sp->rank) < 0)
        return -1;
    Py_INCREF(sp->rank);
    slot_store(lk, off_g_holder, sp->rank);
    return 0;
}

/* ctx.unlock(lk) past its reference: lk.holder = None; the release. */
static int
glock_release(RunCtx *rc, PyObject *time_obj, PyObject *lk)
{
    Py_INCREF(Py_None);
    slot_store(lk, off_g_holder, Py_None);
    return fifo_release(rc, time_obj, SLOT(lk, off_g_fifo));
}

/* stacks[rank], checked to be a SplitStack. */
static PyObject *
claim_stack(SearchPhaseObject *sp, long long rank)
{
    PyObject *stack;
    if (rank < 0 || rank >= PyList_GET_SIZE(sp->stacks)
            || Py_TYPE(stack = PyList_GET_ITEM(sp->stacks, rank))
               != SplitStackType) {
        PyErr_Format(SimulationError, "fastpath: bad stack of T%lld", rank);
        return NULL;
    }
    return stack;
}

/* The claim's transitions: states[0] (STEALING) or states[1]. */
#define claim_timer(rc, time_obj, sp, which) \
    timer_enter(rc, time_obj, (sp)->timer, \
                PyTuple_GET_ITEM((sp)->states, which))

/* -- the barrier's members (SearchPhase with `sbarrier` bound) -- */

/* An int member of the barrier's __dict__, or -1 with an error set
 * (the counts are never negative). */
static long long
barrier_long(SearchPhaseObject *sp, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(sp->sbarrier, key);
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_KeyError, "fastpath: barrier has no %R", key);
        return -1;
    }
    return PyLong_AsLongLong(v);
}

/* `count == alive and announcer is None`: the barrier is full and
 * nobody announces.  1 / 0, or -1 with an error set. */
static int
barrier_full(SearchPhaseObject *sp)
{
    long long count = barrier_long(sp, s_count), alive;
    PyObject *announcer;
    if (count < 0 || (alive = barrier_long(sp, s_alive)) < 0)
        return -1;
    announcer = PyDict_GetItemWithError(sp->sbarrier, s_announcer);
    if (announcer == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError, "fastpath: barrier has no "
                            "announcer");
        return -1;
    }
    return count == alive && announcer == Py_None;
}

/* The bracket's body, under the lock: count += 1 and _counted[rank] =
 * True (enter, which also notes whether that filled the barrier), or
 * count -= 1 and _counted[rank] = False (leave). */
static int
barrier_count(SearchPhaseObject *sp)
{
    PyObject *counted = PyDict_GetItemWithError(sp->sbarrier, s_counted);
    PyObject *mark = sp->b_entering ? Py_True : Py_False;
    if (counted == NULL || !PyList_CheckExact(counted)
            || sp->me >= PyList_GET_SIZE(counted)) {
        if (!PyErr_Occurred())
            PyErr_SetString(SimulationError, "fastpath: bad barrier "
                            "_counted list");
        return -1;
    }
    if (dict_add_long(sp->sbarrier, s_count, sp->b_entering ? 1 : -1) < 0)
        return -1;
    Py_INCREF(mark);
    PyList_SetItem(counted, (Py_ssize_t)sp->me, mark);
    sp->b_last = sp->b_entering ? barrier_full(sp) : 0;
    return sp->b_last < 0 ? -1 : 0;
}

/* ProbeOrder.one(): i = rng.randrange(n - 1), mapped over the gap at
 * our own rank -- one draw, the stream read (and so seeded) here at
 * the first.  The victim, or -1 with an error set. */
static long long
barrier_one(SearchPhaseObject *sp)
{
    long m = (long)PyList_GET_SIZE(sp->slots) - 1, i;
    PyObject *kk;
    if (m < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "fastpath: one() with no other rank");
        return -1;
    }
    if (sp->draw == NULL
            && (sp->draw = PyObject_GetAttr(sp->rng, s_getrandbits)) == NULL)
        return -1;
    if ((kk = PyLong_FromLong(bit_length(m))) == NULL)
        return -1;
    i = c_draw(sp->draw, kk, m);
    Py_DECREF(kk);
    if (i < 0)
        return -1;
    return i < sp->me ? i : i + 1;
}

/* Drive the search phase (lock-based Sect. 3.1 / distmem Sect. 3.3.3,
 * polling or gated) -- and, with `sbarrier` bound, the streamlined
 * barrier it gives up into -- until it parks on a probe-cost, backoff,
 * resume, poll or lock timeout, a queued lock grant or the idle gate,
 * bounces a steal attempt it does not claim itself (the victim's
 * rank), a pending request (True) or the barrier's declaration
 * ("declare" / "recover") to the worker, or ends.  The worker's `yield
 * phase` receives None when the search gives up (return False; with
 * the barrier bound: when the barrier saw `terminated`, in_barrier
 * still set) and when a claim here landed work (the worker's stack is
 * no longer empty: return True); after a bounced *failed* steal or a
 * service it re-yields the phase, and after a bounced successful steal
 * or a declaration it calls phase.abort() and does not re-yield. */
static int
search_run(PhaseHead *self, RunCtx *rc, PyObject *time_obj, int entry)
{
    SearchPhaseObject *sp = (SearchPhaseObject *)self;

    switch (entry) {
    case SP_IDLE:
        sp->backoff = sp->backoff_min;
        sp->in_barrier = 0;
        goto round_top;
    case SP_SVC_TOP:    goto round_start;
    case SP_PRE_STEAL:  goto steal_bounce;
    case SP_POST_STEAL: goto post_steal;
    case SP_END_COST:   goto round_end;
    case SP_BACKOFF:    goto round_top;
    case SP_PARKED:     goto woke;
    case SP_WOKE_SVC:   goto resume;
    case SP_LOCK_WAIT:  goto claim_acquire;
    case SP_GRANTED:    goto claim_granted;
    case SP_HELD:
        if (sp->nodes != NULL)
            goto claim_unlock;
        goto claim_recheck;
    case SP_UNLOCKED:   goto claim_release;
    case SP_LANDED:     goto claim_land;
    case SB_LOCK_WAIT:  goto barrier_acquire;
    case SB_GRANTED:    goto barrier_granted;
    case SB_UNLOCKED:   goto barrier_unlocked;
    case SB_SVC:        goto barrier_checks;
    case SB_PROBED:     goto barrier_probed;
    case SB_POLL:       goto barrier_top;
    case SB_PARKED:     goto barrier_woke;
    case SB_WOKE_SVC:   goto barrier_resume;
    case SB_DECLARED:   goto finish;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

round_top:
    if (sp->req_slot != NULL) {
        /* distmem: if req_slot.value is not None, bounce for service */
        int hit = req_pending(sp->req_slot);
        if (hit < 0)
            return -1;
        if (hit) {
            if (sp_flush_probes(sp) < 0)
                return -1;
            return phase_bounce(self, rc, Py_True, time_obj, SP_SVC_TOP);
        }
    }
round_start:
    if (sp->scan != NULL) {
        /* the gate branch: with nothing stealable anywhere a round
         * provably fails, so none opens */
        long long surplus = gate_surplus(sp), active;
        if (surplus < 0)
            return -1;
        if (surplus > 0) {
            Py_XSETREF(sp->cur_scan, PyObject_CallNoArgs(sp->scan));
            if (sp->cur_scan == NULL)
                return -1;
            sp->any_working = 1;  /* a gated round ends on persist alone */
            goto scan_step;
        }
        if (!sp->persist)
            goto exit_nowork;
        if ((active = gate_active(sp)) < 0)
            return -1;
        if (active == 0)
            goto exit_nowork;
        /* some thread works but nothing is stealable: park */
        return gate_park(sp, rc->now, SP_PARKED);
    }
    Py_XSETREF(sp->victims, search_cycle(sp));
    if (sp->victims == NULL)
        return -1;
    sp->seg = sp->idx = 0;
    sp->cost_acc = 0.0;
    sp->any_working = 0;

probe_loop:
    while (sp->victims != NULL && sp->seg < PyList_GET_SIZE(sp->victims)) {
        /* segment `seg` from victim `idx` on, to the first with surplus */
        Py_buffer view;
        long long avail = 0;
        if (segment_view(PyList_GET_ITEM(sp->victims, sp->seg), &view) < 0)
            return -1;
        while (avail <= 0 && sp->idx < SEG_LEN(view)) {
            long long victim = ((const int *)view.buf)[sp->idx++];
            PyObject *aval;
            sp->probes_acc += 1;
            if (victim < 0 || victim >= PyList_GET_SIZE(sp->slots)) {
                PyErr_SetString(PyExc_IndexError,
                                "fastpath: probe victim out of range");
                break;
            }
            sp->cost_acc += (sp->node_lo <= victim && victim < sp->node_hi)
                ? sp->c_local : sp->c_remote;
            aval = SLOT(PyList_GET_ITEM(sp->slots, victim), off_w_value);
            if (aval == NULL || !PyLong_CheckExact(aval)) {
                PyErr_SetString(SimulationError,
                                "fastpath: non-int work_avail value");
                break;
            }
            if ((avail = PyLong_AsLongLong(aval)) == -1 && PyErr_Occurred())
                break;
            sp->any_working |= avail == 0;
            sp->cur_victim = victim;
        }
        PyBuffer_Release(&view);
        if (PyErr_Occurred())
            return -1;
        if (avail <= 0) {
            sp->seg += 1;
            sp->idx = 0;
            continue;
        }
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
    /* the round's order is O(threads): dropped before any wait */
    Py_CLEAR(sp->victims);
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

scan_step:
    {
        /* victim, cost_acc, n_probes = probe(scan, slots, bounds) */
        Py_ssize_t victim, n;
        double cost;
        if (scan_kernel(sp->cur_scan, sp->slots, sp->node_lo, sp->node_hi,
                        sp->c_local, sp->c_remote, &victim, &cost, &n) < 0)
            return -1;
        sp->probes_acc += n;
        if (sp_flush_probes(sp) < 0)
            return -1;
        sp->cur_victim = victim;
        if (victim < 0)
            Py_CLEAR(sp->cur_scan);
        if (cost > 0.0) {
            /* yield from ctx.compute(cost_acc), before the steal or
             * at the end of the round */
            sp->state = victim < 0 ? SP_END_COST : SP_PRE_STEAL;
            return rc_push(rc, rc->now + cost * sp->slow, (PyObject *)sp,
                           Py_None);
        }
        if (victim < 0)
            goto round_end;
        goto steal_bounce;
    }

post_steal:
    /* empty or denied: "the probe proceeds to the next victim" (Sect.
     * 3.1; likewise 3.3.3) -- unless, gated, the attempt's yields saw
     * the last surplus go: then the round ends, one draw further on.
     * From the barrier: re-enter it. */
    if (sp->in_barrier)
        goto barrier_enter;
    sp->any_working = 1;
    if (sp->cur_scan == NULL)
        goto probe_loop;
    {
        long long surplus = gate_surplus(sp);
        PyObject *r;
        if (surplus < 0)
            return -1;
        if (surplus > 0)
            goto scan_step;
        if ((r = PyObject_CallMethodNoArgs(sp->cur_scan, s_abandon)) == NULL)
            return -1;
        Py_DECREF(r);
        Py_CLEAR(sp->cur_scan);
        goto round_end;
    }

woke:
    /* a thief's targeted wake means it is blocked on our answer */
    if (sp->req_slot != NULL) {
        int hit = req_pending(sp->req_slot);
        if (hit < 0)
            return -1;
        if (hit)
            return phase_bounce(self, rc, Py_True, time_obj, SP_WOKE_SVC);
    }
resume:
    {
        /* back on the virtual polling cadence, never probing more often
         * than polling would */
        double d = park_resume_delay(sp->t_park, &sp->backoff, rc->now,
                                     sp->backoff_max, sp->backoff_factor);
        if (d > 0.0) {
            sp->state = SP_BACKOFF;
            return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
        }
        goto round_top;
    }

steal_bounce:
    if (sp->locks == NULL) {
        PyObject *v = PyLong_FromLongLong(sp->cur_victim);
        int r;
        if (v == NULL)
            return -1;
        r = phase_bounce(self, rc, v, time_obj, SP_POST_STEAL);
        Py_DECREF(v);
        return r;
    }

    /* The Stealing state: try_steal, LockBasedAlgorithm._claim and
     * _steal_landed, statement for statement -- enter STEALING, count
     * the attempt, then ctx.lock(lk): its round trip, the FIFO grant. */
    if (claim_timer(rc, time_obj, sp, 0) < 0
            || dict_add_long(sp->st_dict, s_steal_attempts, 1) < 0)
        return -1;
    {
        double d = claim_cost(sp, sp->lock_self, sp->lock_node,
                              sp->lock_remote);
        if (d > 0.0) {
            sp->state = SP_LOCK_WAIT;
            return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
        }
    }
claim_acquire:
    {
        PyObject *lk = claim_lock(sp);
        if (lk == NULL)
            return -1;
        return glock_acquire(rc, time_obj, sp, lk, SP_GRANTED);
    }
claim_granted:
    {
        PyObject *lk = claim_lock(sp);
        if (lk == NULL || glock_granted(sp, lk) < 0)
            return -1;
    }
    /* re-check availability under the lock: one shared reference,
     * charged as ctx.compute would */
    if (claim_ref(sp) > 0.0) {
        sp->state = SP_HELD;
        return rc_push(rc, rc->now + claim_ref(sp) * sp->slow,
                       (PyObject *)sp, Py_None);
    }
claim_recheck:
    {
        PyObject *vstack = claim_stack(sp, sp->cur_victim), *shared;
        Py_ssize_t nch, take, i, n;
        if (vstack == NULL)
            return -1;
        shared = SLOT(vstack, off_st_shared);
        if (shared == NULL || !PyList_CheckExact(shared)) {
            PyErr_SetString(SimulationError, "fastpath: bad shared region");
            return -1;
        }
        nch = PyList_GET_SIZE(shared);
        if (nch == 0)
            goto claim_unlock;  /* raced by a thief or the owner */
        take = sp->take == TAKE_ONE ? 1 : sp->take == TAKE_ALL ? nch
            : nch == 1 ? 1 : (nch + 1) / 2;
        /* steal_chunks(take), flattened */
        if ((sp->nodes = PyList_New(0)) == NULL)
            return -1;
        for (i = 0; i < take; i++) {
            PyObject *chunk = PyList_GET_ITEM(shared, i);
            n = PyList_GET_SIZE(sp->nodes);
            if (!PyList_CheckExact(chunk)) {
                PyErr_SetString(PyExc_TypeError,
                                "fastpath: shared chunk must be a list");
                return -1;
            }
            if (PyList_SetSlice(sp->nodes, n, n, chunk) < 0)
                return -1;
        }
        n = PyList_GET_SIZE(sp->nodes);
        sp->chunks = take;
        if (PyList_SetSlice(shared, 0, take, NULL) < 0
                || slot_add_long(vstack, off_st_stolen, n) < 0
                || dict_add_long(sp->algo_dict, s_in_flight_nodes, n) < 0)
            return -1;
        /* self._advertise(victim, vstack.shared_chunks) */
        {
            PyObject *victim = PyLong_FromLongLong(sp->cur_victim);
            PyObject *avail = victim == NULL ? NULL
                : PyLong_FromSsize_t(PyList_GET_SIZE(shared));
            int r = avail == NULL ? -1 : advertise(
                rc, time_obj, PyList_GET_ITEM(sp->slots, sp->cur_victim),
                sp->gate, sp->gate_cat, victim, avail);
            Py_XDECREF(victim);
            if (r < 0)
                return -1;
        }
        if (claim_ref(sp) > 0.0) {
            sp->state = SP_HELD;
            return rc_push(rc, rc->now + claim_ref(sp) * sp->slow,
                           (PyObject *)sp, Py_None);
        }
    }
claim_unlock:
    /* ctx.unlock(lk): one shared reference to its home, not slowed */
    if (claim_ref(sp) > 0.0) {
        sp->state = SP_UNLOCKED;
        return rc_push(rc, rc->now + claim_ref(sp), (PyObject *)sp, Py_None);
    }
claim_release:
    {
        PyObject *lk = claim_lock(sp);
        if (lk == NULL || glock_release(rc, time_obj, lk) < 0)
            return -1;
    }
    if (sp->nodes == NULL) {
        /* steal.fail: back to SEARCHING -- or to BARRIER, from it */
        if ((sp->in_barrier
                ? timer_enter(rc, time_obj, sp->timer, sp->barrier_state)
                : claim_timer(rc, time_obj, sp, 1)) < 0)
            return -1;
        goto post_steal;
    }
    {
        /* ctx.chunk_get: the one-sided transfer outside the critical
         * region (the victim keeps working meanwhile) */
        double bytes = (double)(PyList_GET_SIZE(sp->nodes) * sp->desc_bytes);
        double d = claim_cost(
            sp, 0.0, sp->xfer_lat_node + bytes / sp->xfer_bw_node,
            sp->xfer_lat + bytes / sp->xfer_bw + sp->xfer_pen);
        if (d > 0.0) {
            sp->state = SP_LANDED;
            return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
        }
    }
claim_land:
    {
        /* _steal_landed: push, settle in_flight_nodes, count */
        PyObject *stack = claim_stack(sp, sp->me), *local;
        Py_ssize_t n = PyList_GET_SIZE(sp->nodes), top;
        if (stack == NULL)
            return -1;
        local = SLOT(stack, off_st_local);
        if (local == NULL || !PyList_CheckExact(local)) {
            PyErr_SetString(SimulationError, "fastpath: bad local region");
            return -1;
        }
        top = PyList_GET_SIZE(local);
        if (PyList_SetSlice(local, top, top, sp->nodes) < 0
                || slot_add_long(stack, off_st_pushes, n) < 0
                || dict_add_long(sp->algo_dict, s_in_flight_nodes, -n) < 0
                || dict_add_long(sp->st_dict, s_steals_ok, 1) < 0
                || dict_add_long(sp->st_dict, s_chunks_stolen, sp->chunks) < 0
                || dict_add_long(sp->st_dict, s_nodes_stolen, n) < 0)
            return -1;
        Py_CLEAR(sp->nodes);
        if (sp->in_barrier) {
            /* out of the barrier with work: st.barrier_exits += 1 */
            sp->in_barrier = 0;
            if (dict_add_long(sp->st_dict, s_barrier_exits, 1) < 0)
                return -1;
        }
        if (claim_timer(rc, time_obj, sp, 1) < 0)
            return -1;
        /* work in hand ends the episode: the worker finds its stack
         * full when its `yield phase` returns */
        Py_CLEAR(sp->victims);
        Py_CLEAR(sp->cur_scan);
        return phase_finish(self, rc, time_obj);
    }

exit_nowork:
    if (sp->sbarrier == NULL)
        goto finish;
    /* StreamlinedTermination.phase: count the entry, enter BARRIER */
    sp->in_barrier = 1;
    if (dict_add_long(sp->st_dict, s_barrier_entries, 1) < 0
            || timer_enter(rc, time_obj, sp->timer, sp->barrier_state) < 0)
        return -1;

barrier_enter:
    /* barrier.enter (or, b_entering off, barrier.leave): ctx.lock --
     * its round trip, not slowed, then the FIFO grant */
    sp->b_entering = 1;
barrier_lock:
    if (sp->b_lock_cost > 0.0) {
        sp->state = SB_LOCK_WAIT;
        return rc_push(rc, rc->now + sp->b_lock_cost, (PyObject *)sp,
                       Py_None);
    }
barrier_acquire:
    return glock_acquire(rc, time_obj, sp, sp->b_lock, SB_GRANTED);
barrier_granted:
    if (glock_granted(sp, sp->b_lock) < 0 || barrier_count(sp) < 0)
        return -1;
    /* ctx.unlock: one shared reference to its home, not slowed */
    if (sp->b_unlock_cost > 0.0) {
        sp->state = SB_UNLOCKED;
        return rc_push(rc, rc->now + sp->b_unlock_cost, (PyObject *)sp,
                       Py_None);
    }
barrier_unlocked:
    if (glock_release(rc, time_obj, sp->b_lock) < 0)
        return -1;
    if (!sp->b_entering)
        goto steal_bounce;  /* left it: now try the victim */
    if (sp->b_last)
        return phase_bounce(self, rc, s_declare, time_obj, SB_DECLARED);
    sp->poll = sp->poll_min;

barrier_top:
    /* barrier_service_hook: a pending request is served first */
    if (sp->req_slot != NULL) {
        int hit = req_pending(sp->req_slot);
        if (hit < 0)
            return -1;
        if (hit)
            return phase_bounce(self, rc, Py_True, time_obj, SB_SVC);
    }
barrier_checks:
    {
        PyObject *term = PyDict_GetItemWithError(sp->sbarrier, s_terminated);
        int full, done;
        if (term == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_KeyError, "fastpath: barrier has no "
                                "terminated");
            return -1;
        }
        if ((done = PyObject_IsTrue(term)) < 0)
            return -1;
        if (done)
            goto finish;  /* in_barrier stays set: the run is over */
        if (sp->recover) {
            /* a fail-stop elsewhere made the barrier full */
            if ((full = barrier_full(sp)) < 0)
                return -1;
            if (full)
                return phase_bounce(self, rc, s_recover, time_obj,
                                    SB_DECLARED);
        }
    }
    if (sp->gate != NULL) {
        /* nothing stealable anywhere: park, in this same event */
        long long surplus = gate_surplus(sp);
        if (surplus < 0)
            return -1;
        if (surplus == 0)
            return gate_park(sp, rc->now, SB_PARKED);
    }
    {
        /* inspect a single other thread (Sect. 3.3.1) */
        long long victim = barrier_one(sp);
        double cost;
        if (victim < 0 || dict_add_long(sp->st_dict, s_probes, 1) < 0)
            return -1;
        sp->cur_victim = victim;
        cost = sp->node_lo <= victim && victim < sp->node_hi
            ? sp->c_local : sp->c_remote;
        if (cost > 0.0) {
            sp->state = SB_PROBED;
            return rc_push(rc, rc->now + cost * sp->slow, (PyObject *)sp,
                           Py_None);
        }
    }
barrier_probed:
    {
        long long avail;
        PyObject *aval;
        if (sp->cur_victim >= PyList_GET_SIZE(sp->slots)) {
            PyErr_SetString(PyExc_IndexError,
                            "fastpath: probe victim out of range");
            return -1;
        }
        aval = SLOT(PyList_GET_ITEM(sp->slots, sp->cur_victim), off_w_value);
        if (aval == NULL || !PyLong_CheckExact(aval)) {
            PyErr_SetString(SimulationError,
                            "fastpath: non-int work_avail value");
            return -1;
        }
        if ((avail = PyLong_AsLongLong(aval)) == -1 && PyErr_Occurred())
            return -1;
        if (avail > 0) {
            /* leave before touching the work, so the count never
             * certifies termination with work in flight */
            sp->b_entering = 0;
            goto barrier_lock;
        }
    }
    if (sp->gate != NULL) {
        /* the surplus vanished during the probe's yield: park from the
         * loop top, after its service check */
        long long surplus = gate_surplus(sp);
        if (surplus < 0)
            return -1;
        if (surplus == 0)
            goto barrier_top;
    }
    {
        /* yield Timeout(poll * slow); the poll doubles to its cap */
        double d = sp->poll * sp->slow;
        sp->poll = sp->poll * 2.0;
        if (sp->poll > sp->poll_max)
            sp->poll = sp->poll_max;
        sp->state = SB_POLL;
        return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
    }

barrier_woke:
    /* a thief's targeted wake means it is blocked on our answer */
    if (sp->req_slot != NULL) {
        int hit = req_pending(sp->req_slot);
        if (hit < 0)
            return -1;
        if (hit)
            return phase_bounce(self, rc, Py_True, time_obj, SB_WOKE_SVC);
    }
barrier_resume:
    {
        double d = park_resume_delay(sp->t_park, &sp->poll, rc->now,
                                     sp->poll_max, 2.0);
        if (d > 0.0) {
            sp->state = SB_POLL;
            return rc_push(rc, rc->now + d, (PyObject *)sp, Py_None);
        }
        goto barrier_top;
    }

finish:
    return phase_finish(self, rc, time_obj);
}

/* Drive the mpi-ws idle wait: schedule the backoff compute events and
 * poll the mailbox fast path on each wake; exit (send None back to the
 * worker, which re-runs a full Python idle iteration) as soon as a
 * delivered message is visible.  The wait holds exactly the pure
 * loop's cadence: one event per empty poll, backoff growing
 * geometrically, reset by the worker (phase.reset()) on progress. */
static int
idle_run(PhaseHead *self, RunCtx *rc, PyObject *time_obj, int entry)
{
    IdlePhaseObject *ip = (IdlePhaseObject *)self;
    int hit;

    switch (entry) {
    case IP_IDLE:       goto push_wait;
    case IP_WAIT:       goto check;
    default:
        PyErr_SetString(SimulationError, "fastpath: corrupt phase state");
        return -1;
    }

check:
    /* a delivered head means the worker's iprobe will pop it */
    if ((hit = mailbox_ready(ip->pending, rc->now)) < 0)
        return -1;
    if (hit)
        goto exit_msg;

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
    return phase_finish(self, rc, time_obj);
}

/* ------------------------------------------------------------------ */
/* process dispatch                                                   */
/* ------------------------------------------------------------------ */

/* `worker` yielded the phase: bind it and take the first step -- or, when the phase bounced a value to the worker
 * and is being re-yielded, resume it where it left off.  sim.now and
 * _seq were synced before the send that yielded us. */
static int
phase_start(RunCtx *rc, PhaseHead *ph, PyObject *worker, PyObject *time_obj)
{
    const PhaseDesc *d = ph->desc;
    if (d == NULL) {
        PyErr_Format(SimulationError, "fastpath: %.100s yielded before "
                     "__init__", Py_TYPE(ph)->tp_name);
        return -1;
    }
    if (ph->state != 0) {
        if (ph->worker != worker) {
            PyErr_Format(SimulationError, "fastpath: %s re-yielded by a "
                         "different worker", d->name);
            return -1;
        }
        return d->run(ph, rc, time_obj, ph->state);
    }
    if (ph->worker != NULL) {
        PyErr_Format(SimulationError, "fastpath: %s yielded while already "
                     "running", d->name);
        return -1;
    }
    Py_INCREF(worker);
    ph->worker = worker;
    return d->run(ph, rc, time_obj, 0);
}

/* The phase is over: sync now/_seq and resume the worker with None at
 * its `yield phase` within this dispatch. */
static int
phase_finish(PhaseHead *ph, RunCtx *rc, PyObject *time_obj)
{
    PyObject *worker = ph->worker;
    int r = -1;
    ph->worker = NULL;
    ph->state = 0;
    if (rc_write_now(rc, time_obj) == 0 && rc_write_seq(rc) == 0)
        r = dispatch_send(rc, worker, Py_None, time_obj);
    Py_DECREF(worker);
    return r;
}

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
    if (IS_PHASE(awaited)) {
        int r = phase_start(rc, (PhaseHead *)awaited, proc, time_obj);
        Py_DECREF(awaited);
        return r;
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
    PyObject *v, *item = NULL;  /* the popped heap entry, while in hand */
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
        PyObject *time_obj, *proc, *value;
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
            PyErr_SetString(SimulationError, "fastpath: malformed heap item");
            goto fail;
        }
        time_obj = PyTuple_GET_ITEM(item, 0);
        proc = PyTuple_GET_ITEM(item, 2);
        value = PyTuple_GET_ITEM(item, 3);
        t = PyFloat_AsDouble(time_obj);
        if (t == -1.0 && PyErr_Occurred())
            goto fail;

        if (Py_TYPE(proc) == ProcessType
                && SLOT(proc, off_p_alive) != Py_True) {
            /* stale resumption of an interrupted process: dropped,
             * never counted */
            Py_CLEAR(item);
            continue;
        }
        /* one event, whatever it resumes: set now, check the budget,
         * count, step */
        rc.now = t;
        if (rc.nev >= rc.limit) {
            rc_raise_limit(&rc, time_obj);
            goto fail;
        }
        rc.nev += 1;
        if (Py_TYPE(proc) == ProcessType) {
            if (rc_write_now(&rc, time_obj) < 0
                    || rc_write_seq(&rc) < 0
                    || dispatch_send(&rc, proc, value, time_obj) < 0)
                goto fail;
        } else if (IS_PHASE(proc)) {
            PhaseHead *ph = (PhaseHead *)proc;
            if (ph->desc->run(ph, &rc, time_obj, ph->state) < 0)
                goto fail;
        } else if (proc != Py_None) {
            PyErr_Format(SimulationError,
                         "fastpath cannot drive process of type %.100s; "
                         "run with REPRO_FASTPATH=0",
                         Py_TYPE(proc)->tp_name);
            goto fail;
        } else if (PyTuple_CheckExact(value)) {
            /* delayed event fire (see SimEvent.succeed) */
            PyObject *ev, *val, *stag;
            if (PyTuple_GET_SIZE(value) != 3) {
                PyErr_SetString(PyExc_ValueError,
                                "fastpath: malformed delayed-fire payload");
                goto fail;
            }
            ev = PyTuple_GET_ITEM(value, 0);
            val = PyTuple_GET_ITEM(value, 1);
            stag = PyTuple_GET_ITEM(value, 2);
            if (Py_TYPE(ev) == SimEventType && PyFloat_CheckExact(stag)
                    && PyFloat_AS_DOUBLE(stag) >= 0.0) {
                /* inline SimEvent._fire */
                double stag_d = PyFloat_AS_DOUBLE(stag);
                PyObject *waiters = SLOT(ev, off_e_waiters);
                Py_ssize_t wn, i;
                if (waiters == NULL || !PyList_CheckExact(waiters)) {
                    PyErr_SetString(SimulationError,
                                    "fastpath: bad event waiter list");
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
                    if (rc_push(&rc, rc.now + (double)i * stag_d, w, val) < 0)
                        goto fail;
                }
                if (PyList_SetSlice(waiters, 0, PyList_GET_SIZE(waiters),
                                    NULL) < 0)
                    goto fail;
            } else {
                /* unusual event/stagger: defer to Python */
                PyObject *r;
                if (rc_write_now(&rc, time_obj) < 0 || rc_write_seq(&rc) < 0)
                    goto fail;
                r = PyObject_CallMethodObjArgs(ev, s_fire_m, val, stag, NULL);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
                if (rc_reload_seq(&rc) < 0)
                    goto fail;
            }
        } else {
            /* bare callback (_call_at) */
            PyObject *r;
            if (rc_write_now(&rc, time_obj) < 0 || rc_write_seq(&rc) < 0)
                goto fail;
            r = PyObject_CallNoArgs(value);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            if (rc_reload_seq(&rc) < 0)
                goto fail;
        }
        Py_CLEAR(item);
    }

done:
    if (rc_writeback(&rc) < 0)
        goto badsim;
    Py_DECREF(rc.heap);
    Py_DECREF(rc.simdict);
    return PyFloat_FromDouble(rc.now);

fail:
    Py_XDECREF(item);
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
    tv.tree = tree;  /* borrowed from args for the call */
    if (c_batch_expand(&tv, local, limit, thresh, &n, &pushed) == 0)
        res = Py_BuildValue("LL", n, pushed);
    PyBuffer_Release(&tv.delta);
    PyBuffer_Release(&tv.size);
    return res;
}

/* ------------------------------------------------------------------ */
/* UTS expansion                                                      */
/* ------------------------------------------------------------------ */

#define ROL32(x, n) (((x) << (n)) | ((x) >> (32 - (n))))

/* Sha1Engine.spawn (repro/uts/rng.py): SHA-1 of state || index, a
 * 24-byte message and so one block -- words 0-4 the parent state, 5
 * the child index, 6 the 0x80 pad, 15 the length in bits -- over a
 * rolled 16-word schedule.  States are kept as the digest's five
 * big-endian words, so rand() is word 0 masked to 31 bits. */
static void
sha1_spawn(const uint32_t state[5], uint32_t index, uint32_t out[5])
{
    uint32_t w[16] = {state[0], state[1], state[2], state[3], state[4],
                      index, 0x80000000u, 0, 0, 0, 0, 0, 0, 0, 0, 24 * 8};
    uint32_t a = 0x67452301u, b = 0xEFCDAB89u, c = 0x98BADCFEu,
             d = 0x10325476u, e = 0xC3D2E1F0u;
#define W(i) (w[(i) & 15] = ROL32(w[((i) + 13) & 15] ^ w[((i) + 8) & 15] \
                                  ^ w[((i) + 2) & 15] ^ w[(i) & 15], 1))
#define CH(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define PAR(x, y, z) ((x) ^ (y) ^ (z))
#define MAJ(x, y, z) (((x) & (y)) | ((z) & ((x) | (y))))
/* One round with the roles of a..e rotated by the caller, not moved. */
#define RND(a, b, c, d, e, f, k, x) \
    do { \
        e += ROL32(a, 5) + f(b, c, d) + (k) + (x); \
        b = ROL32(b, 30); \
    } while (0)
#define RND5(f, k, x, i) \
    do { \
        RND(a, b, c, d, e, f, k, x(i)); \
        RND(e, a, b, c, d, f, k, x((i) + 1)); \
        RND(d, e, a, b, c, f, k, x((i) + 2)); \
        RND(c, d, e, a, b, f, k, x((i) + 3)); \
        RND(b, c, d, e, a, f, k, x((i) + 4)); \
    } while (0)
#define W0(i) w[i]
    RND5(CH, 0x5A827999u, W0, 0);
    RND5(CH, 0x5A827999u, W0, 5);
    RND5(CH, 0x5A827999u, W0, 10);
    RND(a, b, c, d, e, CH, 0x5A827999u, w[15]);
    RND(e, a, b, c, d, CH, 0x5A827999u, W(16));
    RND(d, e, a, b, c, CH, 0x5A827999u, W(17));
    RND(c, d, e, a, b, CH, 0x5A827999u, W(18));
    RND(b, c, d, e, a, CH, 0x5A827999u, W(19));
    RND5(PAR, 0x6ED9EBA1u, W, 20);
    RND5(PAR, 0x6ED9EBA1u, W, 25);
    RND5(PAR, 0x6ED9EBA1u, W, 30);
    RND5(PAR, 0x6ED9EBA1u, W, 35);
    RND5(MAJ, 0x8F1BBCDCu, W, 40);
    RND5(MAJ, 0x8F1BBCDCu, W, 45);
    RND5(MAJ, 0x8F1BBCDCu, W, 50);
    RND5(MAJ, 0x8F1BBCDCu, W, 55);
    RND5(PAR, 0xCA62C1D6u, W, 60);
    RND5(PAR, 0xCA62C1D6u, W, 65);
    RND5(PAR, 0xCA62C1D6u, W, 70);
    RND5(PAR, 0xCA62C1D6u, W, 75);
#undef W0
#undef RND5
#undef RND
#undef MAJ
#undef PAR
#undef CH
#undef W
    out[0] = a + 0x67452301u;
    out[1] = b + 0xEFCDAB89u;
    out[2] = c + 0x98BADCFEu;
    out[3] = d + 0x10325476u;
    out[4] = e + 0xC3D2E1F0u;
}

/* SplitmixEngine.spawn: _mix64(state + (index + 1) * gamma), mod 2^64. */
static uint64_t
splitmix_spawn(uint64_t state, uint64_t index)
{
    uint64_t z = state + (index + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/* A node of the implicit tree: generator state and height. */
typedef struct {
    union {
        uint32_t sha1[5];
        uint64_t splitmix;
    } state;
    long long depth;
} UtsNode;

/* The block `buf` of *cap items of `width` bytes, with room for `need`
 * of them: itself, or moved and doubled until they fit.  NULL with
 * MemoryError set when that fails (`buf` is then still the caller's). */
static void *
uts_room(void *buf, long long *cap, long long need, size_t width)
{
    long long grown = *cap;
    if (need <= grown)
        return buf;
    while (grown < need)
        grown *= 2;
    if ((unsigned long long)grown > (size_t)-1 / width
            || (buf = realloc(buf, (size_t)grown * width)) == NULL)
        return PyErr_NoMemory();
    *cap = grown;
    return buf;
}

/* The reverse pass that closes uts.materialized.expand: child j + 1
 * starts where child j's subtree ends. */
static void
uts_sizes(const int32_t *delta, int32_t *size, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = n - 1; i >= 0; i--) {
        int32_t s = 1, j;
        for (j = 0; j <= delta[i]; j++)
            s += size[i + s];
        size[i] = s;
    }
}

/* What expand returns with arrays: (delta, size, max_depth), two
 * array('i') of n items -- `delta` copied in, and its subtree sizes. */
static PyObject *
uts_result(const int32_t *delta, Py_ssize_t n, long long max_depth)
{
    PyObject *mod, *one, *arrays[2] = {NULL, NULL}, *res = NULL;
    Py_buffer view[2];
    int held = 0;
    if ((mod = PyImport_ImportModule("array")) == NULL)
        return NULL;
    one = PyObject_CallMethod(mod, "array", "s(i)", "i", 1);
    Py_DECREF(mod);
    if (one == NULL)
        return NULL;
    for (; held < 2; held++) {
        arrays[held] = PySequence_Repeat(one, n);
        if (arrays[held] == NULL || PyObject_GetBuffer(
                arrays[held], &view[held], PyBUF_WRITABLE) < 0)
            goto done;
    }
    if (view[0].itemsize != sizeof(int32_t)) {
        PyErr_SetString(PyExc_SystemError,
                        "fastpath: array('i') items are not 32 bits here");
        goto done;
    }
    memcpy(view[0].buf, delta, (size_t)n * sizeof(int32_t));
    uts_sizes(view[0].buf, view[1].buf, n);
    res = Py_BuildValue("OOL", arrays[0], arrays[1], max_depth);
done:
    while (held-- > 0)
        PyBuffer_Release(&view[held]);
    Py_XDECREF(arrays[0]);
    Py_XDECREF(arrays[1]);
    Py_DECREF(one);
    return res;
}

/* uts.materialized.expand for a binomial tree under the sha1 or the
 * splitmix engine: the sequential pop() / extend(children) search with
 * the generator inline, from `roots` (height-0 states back to back: 20
 * bytes each for sha1, a native uint64 for splitmix), the first root
 * on top.  Returns (delta, size, max_depth) -- two array('i') in
 * visit order -- or, with count_only, (n_nodes, n_leaves, max_depth)
 * and no arrays; None when visited + pending nodes pass `cap`, the
 * scalar loop's boundary (the layout's positions are int32, so with
 * arrays the cap is at most INT32_MAX). */
static PyObject *
py_expand(PyObject *module, PyObject *args)
{
    const char *engine;
    Py_buffer roots;
    long long b0, m, thresh, cap, i;
    long long n = 0, leaves = 0, max_depth = 0, sp, n_roots;
    long long stack_cap = 1024, delta_cap = 4096;
    int count_only = 0, is_sha1;
    Py_ssize_t width;
    UtsNode *stack = NULL;
    int32_t *delta = NULL;
    void *room;
    PyObject *res = NULL;

    if (!PyArg_ParseTuple(args, "sy*LLLL|p:expand", &engine, &roots, &b0,
                          &m, &thresh, &cap, &count_only))
        return NULL;
    is_sha1 = strcmp(engine, "sha1") == 0;
    if (!is_sha1 && strcmp(engine, "splitmix") != 0) {
        PyErr_Format(PyExc_ValueError,
                     "expand: no kernel for engine '%s'", engine);
        goto done;
    }
    width = is_sha1 ? 20 : (Py_ssize_t)sizeof(uint64_t);
    if (roots.len % width != 0 || b0 < 0 || b0 > INT32_MAX || m < 1
            || m > INT32_MAX || thresh < 0 || thresh > 0x80000000ll
            || cap < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "expand: roots must be whole states, 0 <= b0, "
                        "1 <= m (both int32), 0 <= thresh <= 2**31, "
                        "0 <= cap");
        goto done;
    }
    if (!count_only && cap > INT32_MAX)
        cap = INT32_MAX;
    n_roots = roots.len / width;
    if ((stack = malloc((size_t)stack_cap * sizeof(UtsNode))) == NULL
            || (!count_only && (delta = malloc(
                    (size_t)delta_cap * sizeof(int32_t))) == NULL)) {
        PyErr_NoMemory();
        goto done;
    }
    room = uts_room(stack, &stack_cap, n_roots, sizeof(UtsNode));
    if (room == NULL)
        goto done;
    stack = room;
    for (sp = 0; sp < n_roots; sp++) {
        const unsigned char *p = (const unsigned char *)roots.buf
                                 + (n_roots - 1 - sp) * width;
        UtsNode *node = &stack[sp];
        node->depth = 0;
        if (is_sha1) {
            for (i = 0; i < 5; i++, p += 4)
                node->state.sha1[i] = (uint32_t)p[0] << 24
                    | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
        }
        else
            memcpy(&node->state.splitmix, p, sizeof(uint64_t));
    }
    while (sp > 0) {
        const UtsNode node = stack[--sp];
        long long k = b0;
        if (node.depth > 0) {
            /* rng_rand(state) < floor(q * 2^31)  <=>  interior node */
            const uint32_t r = is_sha1 ? node.state.sha1[0] & 0x7FFFFFFFu
                : (uint32_t)(node.state.splitmix >> 33);
            k = r < thresh ? m : 0;
        }
        if (!count_only) {
            room = uts_room(delta, &delta_cap, n + 1, sizeof(int32_t));
            if (room == NULL)
                goto done;
            delta = room;
            delta[n] = (int32_t)(k - 1);
        }
        /* a count can run for minutes: stay interruptible */
        if ((++n & 0xFFFFF) == 0 && PyErr_CheckSignals() < 0)
            goto done;
        if (k == 0) {
            leaves++;
            if (node.depth > max_depth)  /* the deepest node is a leaf */
                max_depth = node.depth;
            continue;
        }
        if (n + sp + k > cap) {
            res = Py_NewRef(Py_None);
            goto done;
        }
        room = uts_room(stack, &stack_cap, sp + k, sizeof(UtsNode));
        if (room == NULL)
            goto done;
        stack = room;
        for (i = 0; i < k; i++, sp++) {
            stack[sp].depth = node.depth + 1;
            if (is_sha1)
                sha1_spawn(node.state.sha1, (uint32_t)i,
                           stack[sp].state.sha1);
            else
                stack[sp].state.splitmix = splitmix_spawn(
                    node.state.splitmix, (uint64_t)i);
        }
    }
    res = count_only ? Py_BuildValue("LLL", n, leaves, max_depth)
        : uts_result(delta, (Py_ssize_t)n, max_depth);
done:
    free(stack);
    free(delta);
    PyBuffer_Release(&roots);
    return res;
}

/* ------------------------------------------------------------------ */
/* the park victim scan                                               */
/* ------------------------------------------------------------------ */

/* `v > 0` for a work_avail value (an int wherever the package writes
 * one).  1 / 0, or -1 with an error set. */
static int
is_positive(PyObject *v)
{
    if (PyLong_CheckExact(v)) {
        int overflow;
        long x = PyLong_AsLongAndOverflow(v, &overflow);
        return overflow ? overflow > 0 : x > 0;
    }
    {
        PyObject *zero = PyLong_FromLong(0);
        int r;
        if (zero == NULL)
            return -1;
        r = PyObject_RichCompareBool(v, zero, Py_GT);
        Py_DECREF(zero);
        return r;
    }
}

/* ProbeScan.probe (repro/ws/policies.py), statement for statement, as
 * a function of the scan object: incremental Fisher-Yates on the
 * reversed array('i') segment in place, one getrandbits(k) per accepted
 * draw with k recomputed only where the remaining count crosses a power
 * of two, the reference cost added left to right from 0.0, stop at the
 * first victim whose slots[victim].value is positive.  Sets *victim_out
 * (-1: every segment exhausted), *cost and *n_out (probes), and leaves
 * _items / _m / _todo and the generator as the Python method would.
 * 0, or -1 with an error set. */
static int
scan_kernel(PyObject *scan, PyObject *slots, long long node_lo,
            long long node_hi, double c_local, double c_remote,
            Py_ssize_t *victim_out, double *cost, Py_ssize_t *n_out)
{
    PyObject *rng = NULL, *getrandbits = NULL, *todo = NULL, *items = NULL;
    PyObject *mo = NULL, *kk = NULL;
    Py_buffer view = {NULL};
    int *vs, res = -1;
    Py_ssize_t m, n_probes, found = -1;
    double cost_acc = 0.0;

    if ((rng = PyObject_GetAttr(scan, s_rng)) == NULL
            || (getrandbits = PyObject_GetAttr(rng, s_getrandbits)) == NULL
            || (todo = PyObject_GetAttr(scan, s_todo)) == NULL
            || (items = PyObject_GetAttr(scan, s_items)) == NULL
            || (mo = PyObject_GetAttr(scan, s_m)) == NULL)
        goto done;
    m = PyLong_AsSsize_t(mo);
    if ((m == -1 && PyErr_Occurred()) || segment_view(items, &view) < 0)
        goto done;
    if (!PyList_CheckExact(todo) || m < 0 || m > SEG_LEN(view)) {
        PyErr_SetString(PyExc_TypeError, "fastpath: not a ProbeScan");
        goto done;
    }
    vs = view.buf;
    n_probes = m;
    for (;;) {
        while (m > 0) {
            const int k = bit_length((long)m);
            const Py_ssize_t half = (Py_ssize_t)1 << k >> 1;
            Py_XSETREF(kk, PyLong_FromLong(k));
            if (kk == NULL)
                goto done;
            while (m >= half) {
                /* the export pins the segment's size across the calls */
                long r = c_draw(getrandbits, kk, (long)m);
                PyObject *slot, *aval;
                Py_ssize_t victim;
                int hit;
                if (r < 0)
                    goto done;
                m -= 1;
                /* victim = items[j]; items[j] = items[m] */
                victim = vs[m - r];
                vs[m - r] = vs[m];
                if (victim < 0 || victim >= PyList_GET_SIZE(slots)) {
                    PyErr_SetString(PyExc_IndexError,
                                    "fastpath: probe victim out of range");
                    goto done;
                }
                cost_acc += (node_lo <= victim && victim < node_hi)
                    ? c_local : c_remote;
                slot = PyList_GET_ITEM(slots, victim);
                if (Py_TYPE(slot) == SharedVarType
                        && (aval = SLOT(slot, off_w_value)) != NULL) {
                    hit = is_positive(aval);
                } else {
                    aval = PyObject_GetAttr(slot, s_value);
                    hit = aval == NULL ? -1 : is_positive(aval);
                    Py_XDECREF(aval);
                }
                if (hit < 0)
                    goto done;
                if (hit) {
                    found = victim;
                    goto out;
                }
            }
        }
        {
            /* items = self._items = todo.pop(); items.reverse() */
            Py_ssize_t nt = PyList_GET_SIZE(todo), i;
            if (nt == 0)
                goto out;
            PyBuffer_Release(&view);
            Py_INCREF(PyList_GET_ITEM(todo, nt - 1));
            Py_SETREF(items, PyList_GET_ITEM(todo, nt - 1));
            if (segment_view(items, &view) < 0
                    || PyList_SetSlice(todo, nt - 1, nt, NULL) < 0
                    || PyObject_SetAttr(scan, s_items, items) < 0)
                goto done;
            vs = view.buf;
            m = SEG_LEN(view);
            for (i = 0; i < m / 2; i++) {
                int t = vs[i];
                vs[i] = vs[m - 1 - i];
                vs[m - 1 - i] = t;
            }
            n_probes += m;
        }
    }
out:
    Py_SETREF(mo, PyLong_FromSsize_t(m));
    if (mo == NULL || PyObject_SetAttr(scan, s_m, mo) < 0)
        goto done;
    *victim_out = found;
    *cost = cost_acc;
    *n_out = found < 0 ? n_probes : n_probes - m;
    res = 0;
done:
    PyBuffer_Release(&view);
    Py_XDECREF(kk);
    Py_XDECREF(mo);
    Py_XDECREF(items);
    Py_XDECREF(todo);
    Py_XDECREF(getrandbits);
    Py_XDECREF(rng);
    return res;
}

/* scan_probe(scan, slots, bounds): the kernel behind a Python
 * signature, for the generator search (the gated SearchPhase calls it
 * directly).  Returns (victim or None, cost_acc, n_probes). */
static PyObject *
py_scan_probe(PyObject *module, PyObject *args)
{
    PyObject *scan, *slots, *bounds;
    long long node_lo, node_hi;
    double c_local, c_remote, cost;
    Py_ssize_t victim, n_probes;

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OO!O!:scan_probe", &scan, &PyList_Type,
                          &slots, &PyTuple_Type, &bounds)
            || !PyArg_ParseTuple(bounds, "LLdd;bounds must be (node_lo, "
                                 "node_hi, local, remote)", &node_lo,
                                 &node_hi, &c_local, &c_remote)
            || scan_kernel(scan, slots, node_lo, node_hi, c_local, c_remote,
                           &victim, &cost, &n_probes) < 0)
        return NULL;
    return victim < 0 ? Py_BuildValue("Odn", Py_None, cost, n_probes)
        : Py_BuildValue("ndn", victim, cost, n_probes);
}

/* ------------------------------------------------------------------ */
/* the phase object lifecycle, once, against the field tables         */
/* ------------------------------------------------------------------ */

static const PhaseDesc *phase_desc_of(PyTypeObject *type);

/* Store constructor argument `v` in the member row `f` names. */
static int
field_set(PhaseHead *self, const PhaseDesc *d, const PhaseField *f,
          PyObject *v)
{
    void *at = (char *)self + f->off;
    switch (f->kind) {
    case F_OPT:
        if (v == Py_None)
            return 0;
        /* FALLTHROUGH */
    case F_OBJ:
        if (f->exact != NULL && Py_TYPE(v) != f->exact) {
            PyErr_Format(PyExc_TypeError, "%s(): %s must be a %s, not %.100s",
                         d->name, f->name, f->exact->tp_name,
                         Py_TYPE(v)->tp_name);
            return -1;
        }
        Py_INCREF(v);
        *(PyObject **)at = v;
        return 0;
    case F_DOUBLE:
        *(double *)at = PyFloat_AsDouble(v);
        break;
    case F_LONG:
        *(long long *)at = PyLong_AsLongLong(v);
        break;
    case F_FLAG:
        *(int *)at = PyObject_IsTrue(v);
        break;
    case F_BUFFER:
        return PyObject_GetBuffer(v, (Py_buffer *)at, PyBUF_SIMPLE);
    case F_TABLE:
        if (v == Py_None)
            return 0;
        if (PyObject_GetBuffer(v, (Py_buffer *)at, PyBUF_WRITABLE) < 0)
            return -1;
        if (((Py_buffer *)at)->itemsize != sizeof(int)) {
            PyErr_Format(PyExc_TypeError, "%s(): %s must be an array('i')",
                         d->name, f->name);
            return -1;
        }
        return 0;
    case F_DOUBLES: {
        DoubleVec *dv = at;
        PyObject *fast = PySequence_Fast(v, "expected a sequence of floats");
        Py_ssize_t i;
        if (fast == NULL)
            return -1;
        dv->n = PySequence_Fast_GET_SIZE(fast);
        dv->v = PyMem_Malloc((size_t)dv->n * sizeof(double));
        if (dv->v == NULL)
            PyErr_NoMemory();
        for (i = 0; i < dv->n && !PyErr_Occurred(); i++)
            dv->v[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        Py_DECREF(fast);
        break;
    }
    }
    return PyErr_Occurred() ? -1 : 0;
}

/* Release everything the table's rows hold; safe on a blank, a
 * half-built and an already-cleared object alike. */
static void field_clear(PhaseHead *self, const PhaseField *f);

static void
fields_clear(PhaseHead *self, const PhaseDesc *d)
{
    const PhaseField *f;
    for (f = d->fields; f->name != NULL; f++)
        field_clear(self, f);
}

/* Give a fresh row `f` of `self` the value the same row holds in the
 * bound phase `tmpl`: a reference, a number, a second buffer export of
 * the same object, a copy of the cost block. */
static int
field_copy(PhaseHead *self, const PhaseHead *tmpl, const PhaseField *f)
{
    void *at = (char *)self + f->off;
    const void *from = (const char *)tmpl + f->off;
    switch (f->kind) {
    case F_OBJ:
    case F_OPT:
        Py_XINCREF(*(PyObject *const *)from);
        *(PyObject **)at = *(PyObject *const *)from;
        return 0;
    case F_DOUBLE:
        *(double *)at = *(const double *)from;
        return 0;
    case F_LONG:
        *(long long *)at = *(const long long *)from;
        return 0;
    case F_FLAG:
        *(int *)at = *(const int *)from;
        return 0;
    case F_BUFFER:
    case F_TABLE: {
        PyObject *obj = ((const Py_buffer *)from)->obj;
        if (obj == NULL)
            return 0;
        return PyObject_GetBuffer(obj, (Py_buffer *)at, f->kind == F_BUFFER
                                  ? PyBUF_SIMPLE : PyBUF_WRITABLE);
    }
    case F_DOUBLES: {
        const DoubleVec *src = from;
        DoubleVec *dv = at;
        dv->v = PyMem_Malloc((size_t)src->n * sizeof(double));
        if (dv->v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memcpy(dv->v, src->v, (size_t)src->n * sizeof(double));
        dv->n = src->n;
        return 0;
    }
    }
    return 0;
}

/* The row a constructor keyword names, or NULL: by the interned key's
 * identity first (a keyword written in the caller's source is the
 * same object), then by value. */
static const PhaseField *
field_named(const PhaseDesc *d, PyObject *key)
{
    const PhaseField *f;
    for (f = d->fields; f->name != NULL; f++)
        if (f->key == key && f->kind != F_RUNTIME)
            return f;
    for (f = d->fields; f->name != NULL; f++)
        if (f->kind != F_RUNTIME
                && PyUnicode_CompareWithASCIIString(key, f->name) == 0)
            return f;
    return NULL;
}

/* Release what one row holds (fields_clear, for one row). */
static void
field_clear(PhaseHead *self, const PhaseField *f)
{
    void *at = (char *)self + f->off;
    if (HOLDS_OBJECT(f->kind)) {
        Py_CLEAR(*(PyObject **)at);
    } else if (f->kind == F_BUFFER || f->kind == F_TABLE) {
        PyBuffer_Release((Py_buffer *)at);
    } else if (f->kind == F_DOUBLES) {
        PyMem_Free(((DoubleVec *)at)->v);
        ((DoubleVec *)at)->v = NULL;
    }
}

/* Bind a blank phase's rows -- every row from the keyword dict, or
 * (given the bound phase `tmpl`) every row from `tmpl` and then the
 * keywords' rows from the dict -- and run the type's check.  A row no
 * keyword names without `tmpl`, or a keyword no row names, is a
 * TypeError naming it. */
static int
phase_bind(PhaseHead *self, const PhaseDesc *d, PyObject *kwds,
           const PhaseHead *tmpl)
{
    const PhaseField *f;
    const char *complaint;
    Py_ssize_t pos = 0;
    PyObject *key, *v;

    for (f = d->fields; f->name != NULL; f++) {
        if (f->kind == F_RUNTIME)
            continue;
        if (tmpl != NULL) {
            if (field_copy(self, tmpl, f) < 0)
                goto fail;
            continue;
        }
        v = kwds != NULL ? PyDict_GetItemWithError(kwds, f->key) : NULL;
        if (v == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "%s() missing required "
                             "keyword argument '%s'", d->name, f->name);
            goto fail;
        }
        if (field_set(self, d, f, v) < 0)
            goto fail;
    }
    while (kwds != NULL && PyDict_Next(kwds, &pos, &key, &v)) {
        if ((f = field_named(d, key)) == NULL) {
            PyErr_Format(PyExc_TypeError, "%s() got an unexpected keyword "
                         "argument %R", d->name, key);
            goto fail;
        }
        if (tmpl != NULL) {
            field_clear(self, f);
            if (field_set(self, d, f, v) < 0)
                goto fail;
        }
    }
    if (d->check != NULL && (complaint = d->check(self)) != NULL) {
        PyErr_Format(PyExc_ValueError, "%s(): %s", d->name, complaint);
        goto fail;
    }
    self->desc = d;
    return 0;

fail:
    fields_clear(self, d);
    return -1;
}

static int
phase_init(PyObject *o, PyObject *args, PyObject *kwds)
{
    PhaseHead *self = (PhaseHead *)o;
    const PhaseDesc *d = phase_desc_of(Py_TYPE(o));

    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath core not configured");
        return -1;
    }
    if (self->desc != NULL) {
        /* the members are live: re-binding them would leak the held
         * references, buffer exports and cost block */
        PyErr_Format(PyExc_TypeError, "%s.__init__() called twice", d->name);
        return -1;
    }
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_Format(PyExc_TypeError, "%s() takes keyword arguments only",
                     d->name);
        return -1;
    }
    return phase_bind(self, d, kwds, NULL);
}

/* phase.copy(**kw): a new phase of the same type bound to this one's
 * members, the keywords given replacing theirs.  A binder that makes
 * one phase a rank hands over only what differs by rank; every member
 * the ranks share costs a reference, not a keyword.  Nothing the run
 * function owns is copied: the new phase starts blank. */
static PyObject *
phase_copy(PyObject *o, PyObject *args, PyObject *kwds)
{
    PhaseHead *tmpl = (PhaseHead *)o, *self;
    const PhaseDesc *d = tmpl->desc;
    if (d == NULL) {
        PyErr_Format(PyExc_TypeError, "%s.copy() before __init__",
                     Py_TYPE(o)->tp_name);
        return NULL;
    }
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_Format(PyExc_TypeError, "%s.copy() takes keyword arguments "
                     "only", d->name);
        return NULL;
    }
    self = (PhaseHead *)d->type->tp_alloc(d->type, 0);
    if (self == NULL)
        return NULL;
    if (phase_bind(self, d, kwds, tmpl) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

#define PHASE_COPY_METHOD \
    {"copy", (PyCFunction)(void (*)(void))phase_copy, \
     METH_VARARGS | METH_KEYWORDS, \
     "copy(**kw) -> a phase bound like this one, kw replacing members"}

static int
phase_traverse(PyObject *o, visitproc visit, void *arg)
{
    PhaseHead *self = (PhaseHead *)o;
    const PhaseField *f;
    Py_VISIT(self->worker);
    if (self->desc != NULL)
        for (f = self->desc->fields; f->name != NULL; f++)
            if (HOLDS_OBJECT(f->kind))
                Py_VISIT(*(PyObject **)((char *)self + f->off));
    return 0;
}

static int
phase_clear(PyObject *o)
{
    PhaseHead *self = (PhaseHead *)o;
    if (self->desc != NULL)
        fields_clear(self, self->desc);
    Py_CLEAR(self->worker);
    return 0;
}

static void
phase_dealloc(PyObject *o)
{
    PyObject_GC_UnTrack(o);
    (void)phase_clear(o);
    Py_TYPE(o)->tp_free(o);
}

static PyObject *
phase_get_running(PyObject *o, void *closure)
{
    return PyBool_FromLong(((PhaseHead *)o)->worker != NULL);
}

static PyGetSetDef phase_getset[] = {
    {"running", phase_get_running, NULL,
     "True while a worker is inside this fused phase", NULL},
    {NULL}
};

/* ------------------------------------------------------------------ */
/* per type: a field table, a check, a descriptor                     */
/* ------------------------------------------------------------------ */

#define PHASE_TYPE(T, methods, members, doc) \
    static PyTypeObject T##_Type = { \
        PyVarObject_HEAD_INIT(NULL, 0) \
        .tp_name = "repro.fastpath._core." #T, \
        .tp_basicsize = sizeof(T##Object), \
        .tp_dealloc = phase_dealloc, \
        .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC, \
        .tp_doc = doc, \
        .tp_traverse = phase_traverse, \
        .tp_clear = phase_clear, \
        .tp_methods = methods, \
        .tp_members = members, \
        .tp_getset = phase_getset, \
        .tp_init = phase_init, \
        .tp_new = PyType_GenericNew, \
    }

/* -- WorkPhase ------------------------------------------------------ */

static PhaseField WorkPhase_fields[] = {
    {"local", F_OBJ, offsetof(WorkPhaseObject, local), &PyList_Type},
    {"shared", F_OBJ, offsetof(WorkPhaseObject, shared)},
    {"shared_append", F_OBJ, offsetof(WorkPhaseObject, shared_append)},
    {"shared_pop", F_OBJ, offsetof(WorkPhaseObject, shared_pop)},
    {"stack", F_OBJ, offsetof(WorkPhaseObject, stack)},
    {"st_dict", F_OBJ, offsetof(WorkPhaseObject, st_dict), &PyDict_Type},
    {"timer", F_OBJ, offsetof(WorkPhaseObject, timer)},
    {"states", F_OBJ, offsetof(WorkPhaseObject, states), &PyTuple_Type},
    {"tree", F_OBJ, offsetof(WorkPhaseObject, tv.tree)},
    {"delta", F_BUFFER, offsetof(WorkPhaseObject, tv.delta)},
    {"size", F_BUFFER, offsetof(WorkPhaseObject, tv.size)},
    {"visit_costs", F_DOUBLES, offsetof(WorkPhaseObject, vt)},
    {"chunk", F_LONG, offsetof(WorkPhaseObject, chunk)},
    {"thresh", F_LONG, offsetof(WorkPhaseObject, thresh)},
    {"limit", F_LONG, offsetof(WorkPhaseObject, limit)},
    {"req_slot", F_OPT, offsetof(WorkPhaseObject, req_slot)},
    {"poll", F_OPT, offsetof(WorkPhaseObject, poll)},
    {"pending", F_OPT, offsetof(WorkPhaseObject, pending), &PyList_Type},
    {"wa", F_OPT, offsetof(WorkPhaseObject, wa)},
    {"no_work", F_OPT, offsetof(WorkPhaseObject, no_work)},
    {"gate", F_OPT, offsetof(WorkPhaseObject, gate)},
    {"gate_cat", F_OPT, offsetof(WorkPhaseObject, gate_cat), &PyList_Type},
    {"rank", F_OBJ, offsetof(WorkPhaseObject, rank), &PyLong_Type},
    {"fifo", F_OPT, offsetof(WorkPhaseObject, fifo)},
    {"lock_to", F_DOUBLE, offsetof(WorkPhaseObject, lock_to)},
    {"barrier_dict", F_OPT, offsetof(WorkPhaseObject, barrier_dict),
     &PyDict_Type},
    {"reset_cost", F_DOUBLE, offsetof(WorkPhaseObject, reset_cost)},
    {"home_occupancy", F_DOUBLE, offsetof(WorkPhaseObject, home_occupancy)},
    {"task_of", F_TABLE, offsetof(WorkPhaseObject, task_of)},
    {"outstanding", F_TABLE, offsetof(WorkPhaseObject, outstanding)},
    {"task_nodes", F_TABLE, offsetof(WorkPhaseObject, task_nodes)},
    {"drained", F_OPT, offsetof(WorkPhaseObject, drained)},
    {NULL}
};

static const char *
work_check(PhaseHead *self)
{
    WorkPhaseObject *w = (WorkPhaseObject *)self;
    if (w->vt.n < w->limit + 1 || w->limit < 1 || w->chunk < 1
            || w->thresh < 1)
        return "bad phase bounds";
    if (PyTuple_GET_SIZE(w->states) != 2)
        return "states must be a pair";
    if (w->poll != NULL && w->pending == NULL)
        return "poll needs the pending list it probes";
    if (w->wa != NULL && w->no_work == NULL)
        return "wa needs the no_work sentinel it is poked with at exit";
    if (w->gate != NULL && (w->wa == NULL || w->gate_cat == NULL))
        return "gate needs the wa whose writes it is told and its _cat list";
    if (w->fifo != NULL && Py_TYPE(w->fifo) != FifoLockType)
        return "fifo must be a FifoLock";
    if (w->barrier_dict != NULL && w->fifo == NULL)
        return "barrier_dict needs the fifo whose releases reset it";
    if ((w->drained != NULL) != (w->task_of.obj != NULL)
            || (w->drained != NULL) != (w->outstanding.obj != NULL)
            || (w->drained != NULL) != (w->task_nodes.obj != NULL)
            || w->task_of.len != (w->drained != NULL ? w->tv.size.len : 0)
            || w->task_nodes.len != w->outstanding.len)
        return "drained needs task_of (a task per tree position) and the "
               "equal-length outstanding and task_nodes tables it books";
    return NULL;
}

static PyMethodDef WorkPhase_methods[] = {
    PHASE_COPY_METHOD,
    {NULL, NULL, 0, NULL}
};

PHASE_TYPE(WorkPhase, WorkPhase_methods, NULL,
           "Fused Working state (AlgorithmBase.working_phase)");

static const PhaseDesc WorkPhase_desc = {
    "WorkPhase", &WorkPhase_Type, WorkPhase_fields, work_run, work_check
};

/* -- SearchPhase ---------------------------------------------------- */

static PhaseField SearchPhase_fields[] = {
    {"st_dict", F_OBJ, offsetof(SearchPhaseObject, st_dict), &PyDict_Type},
    {"segments", F_OPT, offsetof(SearchPhaseObject, segments)},
    {"getrandbits", F_OPT, offsetof(SearchPhaseObject, getrandbits)},
    {"bounds", F_OBJ, offsetof(SearchPhaseObject, bounds), &PyTuple_Type},
    {"slots", F_OBJ, offsetof(SearchPhaseObject, slots), &PyList_Type},
    {"req_slot", F_OPT, offsetof(SearchPhaseObject, req_slot)},
    {"backoff_min", F_DOUBLE, offsetof(SearchPhaseObject, backoff_min)},
    {"backoff_factor", F_DOUBLE, offsetof(SearchPhaseObject, backoff_factor)},
    {"backoff_max", F_DOUBLE, offsetof(SearchPhaseObject, backoff_max)},
    {"slow", F_DOUBLE, offsetof(SearchPhaseObject, slow)},
    {"persist", F_FLAG, offsetof(SearchPhaseObject, persist)},
    {"rank", F_OBJ, offsetof(SearchPhaseObject, rank), &PyLong_Type},
    {"gate", F_OPT, offsetof(SearchPhaseObject, gate)},
    {"gate_cat", F_OPT, offsetof(SearchPhaseObject, gate_cat), &PyList_Type},
    {"scan", F_OPT, offsetof(SearchPhaseObject, scan)},
    {"locks", F_OPT, offsetof(SearchPhaseObject, locks), &PyList_Type},
    {"stacks", F_OPT, offsetof(SearchPhaseObject, stacks), &PyList_Type},
    {"algo_dict", F_OPT, offsetof(SearchPhaseObject, algo_dict),
     &PyDict_Type},
    {"steal", F_OPT, offsetof(SearchPhaseObject, steal), &PyUnicode_Type},
    {"claim_costs", F_OPT, offsetof(SearchPhaseObject, claim_costs),
     &PyTuple_Type},
    {"states", F_OPT, offsetof(SearchPhaseObject, states), &PyTuple_Type},
    {"timer", F_OBJ, offsetof(SearchPhaseObject, timer)},
    {"sbarrier", F_OPT, offsetof(SearchPhaseObject, sbarrier), &PyDict_Type},
    {"rng", F_OPT, offsetof(SearchPhaseObject, rng)},
    {"barrier_state", F_OPT, offsetof(SearchPhaseObject, barrier_state),
     &PyUnicode_Type},
    {"barrier_lock_costs", F_OPT,
     offsetof(SearchPhaseObject, barrier_lock_costs), &PyTuple_Type},
    {"poll_min", F_DOUBLE, offsetof(SearchPhaseObject, poll_min)},
    {"poll_max", F_DOUBLE, offsetof(SearchPhaseObject, poll_max)},
    {"recover", F_FLAG, offsetof(SearchPhaseObject, recover)},
    {"victims", F_RUNTIME, offsetof(SearchPhaseObject, victims)},
    {"cur_scan", F_RUNTIME, offsetof(SearchPhaseObject, cur_scan)},
    {"nodes", F_RUNTIME, offsetof(SearchPhaseObject, nodes)},
    {"b_lock", F_RUNTIME, offsetof(SearchPhaseObject, b_lock)},
    {"draw", F_RUNTIME, offsetof(SearchPhaseObject, draw)},
    {NULL}
};

/* The barrier members, stated all or none; the lock's costs from this
 * rank.  NULL, or the complaint. */
static const char *
barrier_check(SearchPhaseObject *sp)
{
    double lock_self, lock_node, lock_remote;
    int home_on_node = sp->node_lo <= 0 && 0 < sp->node_hi;
    PyObject *lk;
    if (sp->sbarrier == NULL) {
        if (sp->barrier_state != NULL || sp->barrier_lock_costs != NULL)
            return "barrier_state and barrier_lock_costs need sbarrier";
        return NULL;
    }
    if (sp->rng == NULL || sp->barrier_state == NULL
            || sp->barrier_lock_costs == NULL)
        return "sbarrier needs rng, barrier_state and barrier_lock_costs";
    if (!PyArg_ParseTuple(sp->barrier_lock_costs, "ddd", &lock_self,
                          &lock_node, &lock_remote)) {
        PyErr_Clear();
        return "barrier_lock_costs must be (lock_self, lock_local, "
               "lock_remote)";
    }
    lk = PyDict_GetItemWithError(sp->sbarrier, s_lock);
    if (lk == NULL || !glock_ok(lk)) {
        PyErr_Clear();
        return "sbarrier's lock must be a GlobalLock";
    }
    Py_INCREF(lk);
    Py_XSETREF(sp->b_lock, lk);
    /* net.lock_cost(rank, 0) and net.shared_ref(rank, 0) */
    sp->b_lock_cost = sp->me == 0 ? lock_self
        : home_on_node ? lock_node : lock_remote;
    sp->b_unlock_cost = sp->me == 0 ? 0.0
        : home_on_node ? sp->c_local : sp->c_remote;
    return NULL;
}

static const char *
search_check(PhaseHead *self)
{
    SearchPhaseObject *sp = (SearchPhaseObject *)self;
    const char *complaint;
    if (sp->scan == NULL && (sp->getrandbits == NULL || sp->segments == NULL
                             || !PyCallable_Check(sp->getrandbits)
                             || !PyCallable_Check(sp->segments)))
        return "getrandbits and segments must be callable (polling)";
    if (!PyArg_ParseTuple(sp->bounds, "LLdd", &sp->node_lo, &sp->node_hi,
                          &sp->c_local, &sp->c_remote)) {
        PyErr_Clear();
        return "bounds must be (node_lo, node_hi, local, remote)";
    }
    sp->me = PyLong_AsLongLong(sp->rank);
    if ((sp->gate != NULL) != (sp->gate_cat != NULL))
        return "gate and its _cat list go together";
    if (sp->scan != NULL && (sp->gate == NULL || !PyCallable_Check(sp->scan)))
        return "scan must be callable and needs the gate whose counters "
               "open its rounds";
    if ((complaint = barrier_check(sp)) != NULL)
        return complaint;
    if (sp->locks == NULL) {
        if (sp->stacks != NULL || sp->algo_dict != NULL || sp->steal != NULL
                || sp->claim_costs != NULL || sp->states != NULL)
            return "the claim's stacks, algo_dict, steal, claim_costs "
                   "and states need locks";
        return NULL;
    }
    if (sp->stacks == NULL || sp->algo_dict == NULL || sp->steal == NULL
            || sp->claim_costs == NULL || sp->states == NULL
            || PyTuple_GET_SIZE(sp->states) != 2)
        return "locks needs stacks, algo_dict, steal, claim_costs and "
               "states (a pair)";
    if (PyUnicode_CompareWithASCIIString(sp->steal, "one") == 0)
        sp->take = TAKE_ONE;
    else if (PyUnicode_CompareWithASCIIString(sp->steal, "half") == 0)
        sp->take = TAKE_HALF;
    else if (PyUnicode_CompareWithASCIIString(sp->steal, "all") == 0)
        sp->take = TAKE_ALL;
    else
        return "steal must be one, half or all";
    if (!PyArg_ParseTuple(sp->claim_costs, "ddddddddL", &sp->lock_self,
                          &sp->lock_node, &sp->lock_remote,
                          &sp->xfer_lat_node, &sp->xfer_bw_node,
                          &sp->xfer_lat, &sp->xfer_bw, &sp->xfer_pen,
                          &sp->desc_bytes)) {
        PyErr_Clear();
        return "claim_costs must be net.steal_cost_terms()";
    }
    return NULL;
}

static PyObject *
SearchPhase_abort(SearchPhaseObject *self, PyObject *Py_UNUSED(ignored))
{
    /* Successful steal: the worker returns to its main loop instead of
     * re-yielding, so reset the phase for its next search episode.
     * (probes_acc is always flushed before a bounce, so no counters
     * are lost here.) */
    Py_CLEAR(self->victims);
    Py_CLEAR(self->cur_scan);
    Py_CLEAR(self->worker);
    self->probes_acc = 0;
    self->cost_acc = 0.0;
    self->in_barrier = 0;
    self->state = SP_IDLE;
    Py_RETURN_NONE;
}

static PyMethodDef SearchPhase_methods[] = {
    {"abort", (PyCFunction)SearchPhase_abort, METH_NOARGS,
     "Reset the phase after a successful steal or a declaration (the "
     "worker will not re-yield it)"},
    PHASE_COPY_METHOD,
    {NULL, NULL, 0, NULL}
};

static PyMemberDef SearchPhase_members[] = {
    {"in_barrier", T_INT, offsetof(SearchPhaseObject, in_barrier), READONLY,
     "1 from the barrier's entry until a steal out of it lands work (or "
     "abort()); still 1 after the phase ended on `terminated`"},
    {NULL}
};

PHASE_TYPE(SearchPhase, SearchPhase_methods, SearchPhase_members,
           "Fused search phase (lock-based / upc-distmem / service pool, "
           "polling or gated), with the lock-based Stealing state");

static const PhaseDesc SearchPhase_desc = {
    "SearchPhase", &SearchPhase_Type, SearchPhase_fields, search_run,
    search_check
};

/* -- IdlePhase ------------------------------------------------------ */

static PhaseField IdlePhase_fields[] = {
    {"pending", F_OBJ, offsetof(IdlePhaseObject, pending), &PyList_Type},
    {"backoff_min", F_DOUBLE, offsetof(IdlePhaseObject, backoff_min)},
    {"backoff_factor", F_DOUBLE, offsetof(IdlePhaseObject, backoff_factor)},
    {"backoff_max", F_DOUBLE, offsetof(IdlePhaseObject, backoff_max)},
    {"slow", F_DOUBLE, offsetof(IdlePhaseObject, slow)},
    {NULL}
};

static const char *
idle_check(PhaseHead *self)
{
    IdlePhaseObject *ip = (IdlePhaseObject *)self;
    ip->backoff = ip->backoff_min;
    return NULL;
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

PHASE_TYPE(IdlePhase, IdlePhase_methods, NULL,
           "Fused mpi-ws idle wait (backoff polls between messages)");

static const PhaseDesc IdlePhase_desc = {
    "IdlePhase", &IdlePhase_Type, IdlePhase_fields, idle_run, idle_check
};

static const PhaseDesc *const phase_descs[] = {
    &WorkPhase_desc, &SearchPhase_desc, &IdlePhase_desc, NULL
};

static const PhaseDesc *
phase_desc_of(PyTypeObject *type)
{
    const PhaseDesc *const *d = phase_descs;
    while ((*d)->type != type)  /* only the three types call this */
        d++;
    return *d;
}

/* ------------------------------------------------------------------ */
/* configure                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
py_configure(PyObject *module, PyObject *args)
{
    PyObject *timeout_cls, *event_cls, *process_cls, *fifo_cls, *glock_cls,
        *stack_cls, *shared_cls, *sim_error, *cancelled;
    if (!PyArg_ParseTuple(args, "OOOOOOOOO:configure", &timeout_cls,
                          &event_cls, &process_cls, &fifo_cls, &glock_cls,
                          &stack_cls, &shared_cls, &sim_error, &cancelled))
        return NULL;
    if (!PyType_Check(timeout_cls) || !PyType_Check(event_cls)
            || !PyType_Check(process_cls) || !PyType_Check(fifo_cls)
            || !PyType_Check(glock_cls) || !PyType_Check(stack_cls)
            || !PyType_Check(shared_cls)) {
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
    RES(off_f_ev_name, fifo_cls, "_ev_name");
    RES(off_g_fifo, glock_cls, "fifo");
    RES(off_g_holder, glock_cls, "holder");
    RES(off_g_pending, glock_cls, "pending");
    RES(off_st_local, stack_cls, "local");
    RES(off_st_shared, stack_cls, "shared");
    RES(off_st_stolen, stack_cls, "stolen_from_me_nodes");
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
    Py_INCREF(shared_cls);
    Py_XSETREF(SharedVarType, (PyTypeObject *)shared_cls);
    Py_INCREF(fifo_cls);
    Py_XSETREF(FifoLockType, (PyTypeObject *)fifo_cls);
    Py_INCREF(glock_cls);
    Py_XSETREF(GlobalLockType, (PyTypeObject *)glock_cls);
    Py_INCREF(stack_cls);
    Py_XSETREF(SplitStackType, (PyTypeObject *)stack_cls);
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
     "configure(Timeout, SimEvent, Process, FifoLock, GlobalLock, "
     "SplitStack, SharedVar, SimulationError, cancelled) -> None"},
    {"run", fast_run, METH_VARARGS,
     "run(sim, until=None) -> float -- the compiled Simulator.run loop"},
    {"batch_expand", py_batch_expand, METH_VARARGS,
     "batch_expand(tree, delta, size, local, limit, thresh) -> (n, pushed)"},
    {"expand", py_expand, METH_VARARGS,
     "expand(engine, roots, b0, m, thresh, cap, count_only=False) -> "
     "(delta, size, max_depth) | (n_nodes, n_leaves, max_depth) | None"},
    {"scan_probe", py_scan_probe, METH_VARARGS,
     "scan_probe(scan, slots, bounds) -> (victim, cost_acc, n_probes) -- "
     "ProbeScan.probe"},
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
    const PhaseDesc *const *d;
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
    INTERN(s_fire_m, "_fire");
    INTERN(s_nodes_visited, "nodes_visited");
    INTERN(s_reacquires, "reacquires");
    INTERN(s_releases, "releases");
    INTERN(s_cancels, "cancels");
    INTERN(s_waiters_key, "_waiters");
    INTERN(s_probes, "probes");
    INTERN(s_rng, "_rng");
    INTERN(s_getrandbits, "getrandbits");
    INTERN(s_todo, "_todo");
    INTERN(s_items, "_items");
    INTERN(s_m, "_m");
    INTERN(s_value, "value");
    INTERN(s_note, "note");
    INTERN(s_steal_attempts, "steal_attempts");
    INTERN(s_steals_ok, "steals_ok");
    INTERN(s_chunks_stolen, "chunks_stolen");
    INTERN(s_nodes_stolen, "nodes_stolen");
    INTERN(s_in_flight_nodes, "in_flight_nodes");
    INTERN(s_n_surplus, "n_surplus");
    INTERN(s_n_active, "n_active");
    INTERN(s_park, "park");
    INTERN(s_abandon, "abandon");
    INTERN(s_enter, "enter");
    INTERN(s_barrier_entries, "barrier_entries");
    INTERN(s_barrier_exits, "barrier_exits");
    INTERN(s_count, "count");
    INTERN(s_alive, "alive");
    INTERN(s_announcer, "announcer");
    INTERN(s_terminated, "terminated");
    INTERN(s_counted, "_counted");
    INTERN(s_lock, "lock");
    INTERN(s_declare, "declare");
    INTERN(s_recover, "recover");
#undef INTERN
    m = PyModule_Create(&core_module);
    if (m == NULL)
        return NULL;
    for (d = phase_descs; *d != NULL; d++) {
        PhaseField *f;
        for (f = (*d)->fields; f->name != NULL; f++)
            if ((f->key = PyUnicode_InternFromString(f->name)) == NULL) {
                Py_DECREF(m);
                return NULL;
            }
        if (PyType_Ready((*d)->type) < 0
                || PyModule_AddObjectRef(m, (*d)->name,
                                         (PyObject *)(*d)->type) < 0) {
            Py_DECREF(m);
            return NULL;
        }
    }
    return m;
}
