/* Compiled flip sampler: the contract of qprobe._flipcore.sample_packed_numpy.
 *
 * sample_packed(ideal, keys, thresholds, bits, shots, out) fills the uint64
 * buffer out with one packed outcome word per shot.  Shot s of event j draws
 * u = mix64(keys[j] ^ s * GAMMA) and flips bit bits[j] when u < thresholds[j].
 * keys and thresholds are uint64 buffers, bits an int64 buffer.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static inline uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static PyObject *sample_packed(PyObject *Py_UNUSED(self), PyObject *args) {
    unsigned long long ideal;
    Py_buffer kb, tb, bb, ob;
    Py_ssize_t shots, n, s, j;
    if (!PyArg_ParseTuple(args, "Ky*y*y*nw*", &ideal, &kb, &tb, &bb, &shots, &ob))
        return NULL;
    const uint64_t *keys = kb.buf, *thr = tb.buf;
    const int64_t *bits = bb.buf;
    uint64_t *out = ob.buf;
    n = kb.len / 8;
    int ok = kb.len % 8 == 0 && tb.len == kb.len && bb.len == kb.len
             && shots >= 0 && ob.len == shots * 8;
    for (j = 0; ok && j < n; j++)
        ok = bits[j] >= 0 && bits[j] < 64;
    if (ok) {
        Py_BEGIN_ALLOW_THREADS
        for (s = 0; s < shots; s++) {
            uint64_t word = ideal, salt = (uint64_t)s * 0x9E3779B97F4A7C15ULL;
            for (j = 0; j < n; j++)
                word ^= (uint64_t)(mix64(keys[j] ^ salt) < thr[j]) << bits[j];
            out[s] = word;
        }
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&kb); PyBuffer_Release(&tb); PyBuffer_Release(&bb); PyBuffer_Release(&ob);
    if (!ok)
        return PyErr_Format(PyExc_ValueError, "keys, thresholds and bits must hold one "
                            "8-byte word per event, bits in [0, 64), and out one per shot");
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"sample_packed", sample_packed, METH_VARARGS, "Fill out with one packed outcome word per shot."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_flipcore_c", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__flipcore_c(void) { return PyModule_Create(&module); }
