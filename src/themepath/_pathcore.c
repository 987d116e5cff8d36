/* Compiled bitmask-DP kernel for the most probable Hamiltonian path.
 * Plain CPython API: every array arrives through the buffer protocol.
 * Same contracts and bit-identical output as _pathpure.fill_reach and
 * _pathpure.fill_successors. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#define MAX_K 22

/* C(n, r) for n, r <= MAX_K.  A c-subset's colex rank, the sum of
 * C(s_t, t + 1) over its elements s_0 < s_1 < ..., is its index among the
 * c-subsets in increasing mask order. */
static Py_ssize_t binom[MAX_K + 1][MAX_K + 1];

/* Layer c holds g[S, i] for the C(k, c) subsets S of size c: one row of c
 * values per S in increasing mask order, the values in increasing node
 * order.  prev and cur are two layers of max_c C(k, c) * c values each. */
static void
fill(Py_ssize_t k, const double *logw, signed char *succ, double *final, double *prev, double *cur)
{
    for (Py_ssize_t i = 0; i < k; i++) {
        prev[i] = 0.0; /* g[{i}, i]; {i} has rank i */
    }
    for (int c = 2; c <= k; c++) {
        double *out = cur;
        /* Gosper's hack: every c-subset of the k nodes in increasing mask order. */
        for (unsigned long long mask = (1ULL << c) - 1; mask < (1ULL << k);) {
            int elems[MAX_K];
            int n = 0;
            for (unsigned long long m = mask; m; m &= m - 1) {
                elems[n++] = __builtin_ctzll(m);
            }
            /* Rank of S\{elems[p]}: C(s_t, t + 1) summed over t < p plus
             * C(s_t, t) summed over t > p. */
            Py_ssize_t left = 0, right = 0;
            for (int t = 1; t < c; t++) {
                right += binom[elems[t]][t];
            }
            for (int p = 0; p < c; p++) {
                const int i = elems[p];
                const double *row = prev + (left + right) * (c - 1);
                /* g[S, i] = max over j in S\{i} of g[S\{i}, j] + logw[j, i]; the
                 * successor is the first j to reach it, or the lowest j when
                 * every candidate is -inf. */
                double best = -INFINITY;
                int arg = elems[p == 0];
                for (int t = 0; t + 1 < c; t++) {
                    const int j = elems[t + (t >= p)];
                    const double cand = row[t] + logw[j * k + i];
                    if (cand > best) {
                        best = cand;
                        arg = j;
                    }
                }
                out[p] = best;
                succ[mask * k + i] = (signed char)arg;
                left += binom[i][p + 1];
                if (p + 1 < c) {
                    right -= binom[elems[p + 1]][p + 1];
                }
            }
            out += c;
            const unsigned long long t = mask | (mask - 1);
            mask = (t + 1) | (((~t & (t + 1)) - 1) >> (__builtin_ctzll(mask) + 1));
        }
        double *swap = prev;
        prev = cur;
        cur = swap;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        final[i] = prev[i];
    }
}

/* reach[S] for every subset S: bit i is set iff some path over S that starts
 * at i has only positive-probability edges.  reach[{i}] = {i}, and for larger
 * S bit i is set iff reach[S\{i}] meets pos[i], the nodes j with
 * logw[j, i] > -inf.  Every S\{i} precedes S in increasing mask order. */
static void
reach_table(Py_ssize_t k, const double *logw, uint32_t *reach)
{
    uint32_t pos[MAX_K] = {0};
    for (Py_ssize_t j = 0; j < k; j++) {
        for (Py_ssize_t i = 0; i < k; i++) {
            if (logw[j * k + i] > -INFINITY) {
                pos[i] |= (uint32_t)1 << j;
            }
        }
    }
    reach[0] = 0;
    for (uint32_t mask = 1; mask < (uint32_t)1 << k; mask++) {
        uint32_t bits = 0;
        if ((mask & (mask - 1)) == 0) {
            bits = mask;
        }
        else {
            for (uint32_t m = mask; m; m &= m - 1) {
                const int i = __builtin_ctz(m);
                if (reach[mask ^ ((uint32_t)1 << i)] & pos[i]) {
                    bits |= (uint32_t)1 << i;
                }
            }
        }
        reach[mask] = bits;
    }
}

/* k of a k x k float64 weight buffer of len bytes, or 0 if there is none. */
static Py_ssize_t
square_side(Py_ssize_t len)
{
    Py_ssize_t k = 0;
    while ((k + 1) * (k + 1) * (Py_ssize_t)sizeof(double) <= len) {
        k++;
    }
    return k >= 1 && k * k * (Py_ssize_t)sizeof(double) == len ? k : 0;
}

static PyObject *
fill_reach(PyObject *self, PyObject *args)
{
    Py_buffer w, reach;
    int done = 0;
    (void)self;
    if (!PyArg_ParseTuple(args, "y*w*", &w, &reach)) {
        return NULL;
    }
    const Py_ssize_t k = square_side(w.len);
    if (k > MAX_K) {
        PyErr_Format(PyExc_ValueError, "k=%zd exceeds the kernel's cap of %d", k, MAX_K);
    }
    else if (k == 0 || reach.len != ((Py_ssize_t)sizeof(uint32_t) << k)) {
        PyErr_Format(PyExc_ValueError, "buffers of %zd and %zd bytes do not fit k x k weights "
                     "and 2^k uint32 masks for any 1 <= k <= %d", w.len, reach.len, MAX_K);
    }
    else {
        Py_BEGIN_ALLOW_THREADS
        reach_table(k, w.buf, reach.buf);
        Py_END_ALLOW_THREADS
        done = 1;
    }
    PyBuffer_Release(&w);
    PyBuffer_Release(&reach);
    if (!done) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
fill_successors(PyObject *self, PyObject *args)
{
    Py_buffer w, succ, final;
    double *layers = NULL;
    (void)self;
    if (!PyArg_ParseTuple(args, "y*w*w*", &w, &succ, &final)) {
        return NULL;
    }
    /* k from the k x k weights; the other two lengths must match it exactly. */
    const Py_ssize_t k = square_side(w.len);
    if (k > MAX_K) {
        PyErr_Format(PyExc_ValueError, "k=%zd exceeds the kernel's cap of %d", k, MAX_K);
    }
    else if (k == 0 || succ.len != (k << k) || final.len != k * (Py_ssize_t)sizeof(double)) {
        PyErr_Format(PyExc_ValueError, "buffers of %zd, %zd and %zd bytes do not fit k x k "
                     "weights, a 2^k x k int8 table and k float64 values for any 1 <= k <= %d",
                     w.len, succ.len, final.len, MAX_K);
    }
    else {
        Py_ssize_t width = 0;
        for (int c = 1; c <= k; c++) {
            if (binom[k][c] * c > width) {
                width = binom[k][c] * c;
            }
        }
        layers = PyMem_RawMalloc(2 * width * sizeof(double));
        if (layers == NULL) {
            PyErr_NoMemory();
        }
        else {
            Py_BEGIN_ALLOW_THREADS
            fill(k, w.buf, succ.buf, final.buf, layers, layers + width);
            Py_END_ALLOW_THREADS
            PyMem_RawFree(layers);
        }
    }
    PyBuffer_Release(&w);
    PyBuffer_Release(&succ);
    PyBuffer_Release(&final);
    if (layers == NULL) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"fill_reach", fill_reach, METH_VARARGS,
     "fill_reach(logw, reach): for every subset S, the mask of the nodes that start a "
     "positive-probability path over S."},
    {"fill_successors", fill_successors, METH_VARARGS,
     "fill_successors(logw, succ, final): successor of every cell of cardinality >= 2 "
     "of the start-at table, and its full-set row."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_pathcore", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__pathcore(void)
{
    for (int n = 0; n <= MAX_K; n++) {
        binom[n][0] = 1;
        for (int r = 1; r <= n; r++) {
            binom[n][r] = binom[n - 1][r - 1] + binom[n - 1][r];
        }
    }
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "MAX_K", MAX_K) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
