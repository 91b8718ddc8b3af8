"""Counter-based random streams for reproducible parallel sampling.

Every draw is a pure function of (seed, path index, draw index):

    key(path)    = mix64(seed + (path + 1) * GOLDEN)
    bits(key, i) = mix64(key + (i + 1) * GOLDEN)
    uniform      = ((bits >> 11) + 0.5) * 2**-53        in (0, 1)
    normal       = ndtri(uniform)

mix64 is the splitmix64 finalizer (xor-shift-multiply avalanche) and GOLDEN is
the 64-bit golden-ratio increment 0x9E3779B97F4A7C15. Nothing depends on call
order, so any partition of paths or draw ranges across workers reproduces the
same values bit for bit. Normals come from the inverse CDF, never rejection,
so each draw consumes exactly one counter slot.

The kernel is `fill_normals`: it writes draw start + k of stream p to row k,
column p of a caller-owned (count, paths) buffer, so the draws of one step are
one contiguous row, and it runs the whole chain above in place in that buffer
and a caller-owned uint64 scratch. Both samplers take their noise from
`step_normals`, which owns the keys, the chunk and the chunk loop.

The lock rule of `sim` holds here too: mix64's uint64 scratch belongs to the
sampler run, and only the holder of the run's lock touches it. So the
uniform stage runs under that lock, and ndtri, which releases the
interpreter lock for its whole call, runs outside it, one call per chunk.

Only `sim` imports this module, and only the samplers import `sim`, so
scipy.special loads with them, in the thread that imports `sim`, and never
for a deterministic command. On 2 shared vCPUs (`python -X importtime -c
'import ldp_osc.sim'`, and `ru_maxrss` around each import), `import
ldp_osc.sim` takes 0.35-0.5 s: scipy.special 0.24-0.32 s and 26 MiB of RSS,
numpy 0.07-0.10 s and 14 MiB.
"""

import numpy as np
from scipy.special import ndtri

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0

# draws per stream that a sampler takes in one fill_normals call: a chunk for
# a block of 4096 paths is 16 x 4096 float64, 0.5 MiB
CHUNK_ROWS = 16


def mix64(z, out=None, tmp=None):
    """splitmix64 finalizer, vectorized over uint64 arrays (wraps mod 2**64).

    The result goes to `out`, which may be `z` itself; `tmp` is uint64
    scratch of the same shape. Either is allocated when not given.
    """
    z = np.asarray(z, dtype=np.uint64)
    if out is None:
        out = np.empty_like(z)
    if tmp is None:
        tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=tmp)
        np.bitwise_xor(z, tmp, out=out)
        np.multiply(out, _MIX_1, out=out)
        np.right_shift(out, np.uint64(27), out=tmp)
        np.bitwise_xor(out, tmp, out=out)
        np.multiply(out, _MIX_2, out=out)
        np.right_shift(out, np.uint64(31), out=tmp)
        np.bitwise_xor(out, tmp, out=out)
    return out


def stream_keys(seed, paths):
    """One independent stream key per path index."""
    paths = np.asarray(paths, dtype=np.uint64)
    with np.errstate(over="ignore"):
        offset = np.uint64(int(seed) & _MASK) + (paths + np.uint64(1)) * GOLDEN
    return mix64(offset)


def _fill_uniforms(keys, start, out, bits):
    # out[k, p] = uniform draw start + k of stream keys[p]; bits is uint64
    # scratch shaped like out, and mix64's second scratch is out itself, which
    # is written only after its last read
    with np.errstate(over="ignore"):
        steps = np.arange(start + 1, start + 1 + out.shape[0], dtype=np.uint64)
        np.multiply(steps, GOLDEN, out=steps)
        np.add(keys, steps[:, None], out=bits)
    mix64(bits, out=bits, tmp=out.view(np.uint64))
    np.right_shift(bits, np.uint64(11), out=bits)
    # the 53-bit values convert exactly; copyto converts in place, where a
    # mixed uint64 + float add would cast through a 64 KiB scratch buffer
    np.copyto(out, bits, casting="unsafe")
    np.add(out, 0.5, out=out)
    np.multiply(out, _TWO_POW_MINUS_53, out=out)
    return out


def fill_normals(keys, start, out, bits, lock):
    """Step-major normal draws in caller-owned buffers; returns `out`.

    out is a C-contiguous float64 array of shape (count, len(keys)): row k
    receives draw start + k of every stream. bits is uint64 scratch shaped
    like out that only the holder of `lock` touches: the uniform stage runs
    under the lock, and ndtri turns out's uniforms into normals in place
    after it is released. Apart from a count-long counter row, nothing is
    allocated.
    """
    with lock:
        _fill_uniforms(keys, start, out, bits)
    return ndtri(out, out=out)


def step_normals(seed, lo, hi, steps, per_step, lock, bits):
    """Draws of paths lo..hi-1 for `steps` steps of `per_step` draws each,
    step-major, len(bits) // per_step steps per chunk.

    bits is mix64's uint64 scratch, (rows, hi - lo) and C-contiguous, which
    only the holder of `lock` touches (`fill_normals`). Allocates the keys
    and the chunk now and returns an iterator over the chunks. Each chunk is
    a (per_step * count, hi - lo) view of one reused buffer: row per_step *
    j + i holds draw i of the chunk's step j for every path, and step k
    takes draws per_step * k .. per_step * k + per_step - 1 of each stream.
    The caller may overwrite a chunk; the next one refills it.
    """
    keys = stream_keys(seed, np.arange(lo, hi))
    chunk = min(len(bits) // per_step, steps)
    rows = np.empty((per_step * chunk, hi - lo))
    return _chunks(keys, rows, bits, lock, steps, per_step, chunk)


def _chunks(keys, rows, bits, lock, steps, per_step, chunk):
    done = 0
    while done < steps:
        used = per_step * min(chunk, steps - done)
        yield fill_normals(keys, per_step * done, rows[:used], bits[:used],
                           lock)
        done += chunk
