/* Compiled flip sampler: the block contract of qprobe._flipcore.sample_packed_numpy.
 *
 * sample_packed(ideals, keys, thresholds, bits, shots, out) samples B blocks
 * over one circuit's n events: ideals holds one uint64 ideal word per block,
 * bits the int64 target bit of each event, and keys and thresholds, uint64
 * buffers of B * n words, one key and threshold per block and event, block
 * after block.  out, a uint64 buffer of B * shots words, receives block b's
 * shot s at b * shots + s: ideals[b] with bit bits[j] flipped for each event
 * j whose draw u = mix64(keys[b * n + j] ^ s * GAMMA) is below
 * thresholds[b * n + j].
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static inline uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Whether a buffer of len bytes holds exactly rows * cols 8-byte words;
 * divides rather than multiplies, so no product can overflow. */
static int holds_words(Py_ssize_t len, Py_ssize_t rows, Py_ssize_t cols) {
    if (len % 8 != 0)
        return 0;
    if (rows == 0 || cols == 0)
        return len == 0;
    return len / 8 % rows == 0 && len / 8 / rows == cols;
}

static PyObject *sample_packed(PyObject *Py_UNUSED(self), PyObject *args) {
    Py_buffer ib, kb, tb, bb, ob;
    Py_ssize_t shots, blocks, n, b, s, j;
    if (!PyArg_ParseTuple(args, "y*y*y*y*nw*", &ib, &kb, &tb, &bb, &shots, &ob))
        return NULL;
    const uint64_t *ideals = ib.buf, *keys = kb.buf, *thr = tb.buf;
    const int64_t *bits = bb.buf;
    uint64_t *out = ob.buf;
    blocks = ib.len / 8;
    n = bb.len / 8;
    int ok = ib.len % 8 == 0 && bb.len % 8 == 0 && holds_words(kb.len, blocks, n)
             && tb.len == kb.len && shots >= 0 && holds_words(ob.len, blocks, shots);
    for (j = 0; ok && j < n; j++)
        ok = bits[j] >= 0 && bits[j] < 64;
    if (ok) {
        Py_BEGIN_ALLOW_THREADS
        for (b = 0; b < blocks; b++) {
            const uint64_t *block_keys = keys + b * n, *block_thr = thr + b * n;
            for (s = 0; s < shots; s++) {
                uint64_t word = ideals[b], salt = (uint64_t)s * 0x9E3779B97F4A7C15ULL;
                for (j = 0; j < n; j++)
                    word ^= (uint64_t)(mix64(block_keys[j] ^ salt) < block_thr[j]) << bits[j];
                out[b * shots + s] = word;
            }
        }
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&ib); PyBuffer_Release(&kb); PyBuffer_Release(&tb);
    PyBuffer_Release(&bb); PyBuffer_Release(&ob);
    if (!ok)
        return PyErr_Format(PyExc_ValueError, "ideals must hold one 8-byte word per block, "
                            "bits one per event in [0, 64), keys and thresholds one per "
                            "block and event, and out one per block and shot");
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"sample_packed", sample_packed, METH_VARARGS,
     "Fill out with one packed outcome word per block and shot."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_flipcore_c", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__flipcore_c(void) { return PyModule_Create(&module); }
