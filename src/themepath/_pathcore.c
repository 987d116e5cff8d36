/* Compiled bitmask-DP kernel for the most probable Hamiltonian path.
 * Plain CPython API: both float64 arrays arrive through the buffer protocol.
 * Same contract and bit-identical table as _pathpure.fill_table. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define MAX_K 25

static PyObject *
fill_table(PyObject *self, PyObject *args)
{
    Py_buffer w, dp;
    Py_ssize_t k = 0;
    (void)self;
    if (!PyArg_ParseTuple(args, "y*w*", &w, &dp)) {
        return NULL;
    }
    /* k from the k x k weights; both lengths must match it exactly. */
    while (k <= MAX_K && (k + 1) * (k + 1) * (Py_ssize_t)sizeof(double) <= w.len) {
        k++;
    }
    if (k < 1 || k > MAX_K || k * k * (Py_ssize_t)sizeof(double) != w.len
        || dp.len != (k << k) * (Py_ssize_t)sizeof(double)) {
        PyErr_Format(PyExc_ValueError, "buffers of %zd and %zd bytes do not fit k x k weights "
                     "and a 2^k x k table for any 1 <= k <= %d", w.len, dp.len, MAX_K);
        PyBuffer_Release(&w);
        PyBuffer_Release(&dp);
        return NULL;
    }
    const double *logw = w.buf;
    double *table = dp.buf;
    const unsigned long long size = 1ULL << k;

    Py_BEGIN_ALLOW_THREADS
    /* dp[S, i] = max over j in S\{i} of dp[S\{i}, j] + logw[j, i]; every
     * S\{i} is a smaller mask, so increasing mask order has it ready. */
    for (unsigned long long mask = 3; mask < size; mask++) {
        if (!(mask & (mask - 1))) {
            continue; /* singleton: base case set by the caller */
        }
        for (unsigned long long ends = mask; ends; ends &= ends - 1) {
            const int i = __builtin_ctzll(ends);
            const unsigned long long prev = mask ^ (1ULL << i);
            const double *row = table + prev * k;
            double best = -INFINITY;
            for (unsigned long long rest = prev; rest; rest &= rest - 1) {
                const int j = __builtin_ctzll(rest);
                const double cand = row[j] + logw[j * k + i];
                if (cand > best) {
                    best = cand;
                }
            }
            table[mask * k + i] = best;
        }
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&w);
    PyBuffer_Release(&dp);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"fill_table", fill_table, METH_VARARGS,
     "fill_table(logw, dp): fill every cell of cardinality >= 2 of the ending-at table."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_pathcore", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__pathcore(void)
{
    return PyModule_Create(&module);
}
