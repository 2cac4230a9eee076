"""Adaptive noise cancellation with a tapped-delay-line LMS combiner.

The primary input carries signal plus noise; the reference input carries
correlated noise. Each step the combiner predicts the noise component from
the reference delay line, subtracts it, and nudges its weights along the
error gradient: w' = w + 2*mu*e_k*x_k. The running error signal is the
denoised output.

Two loops run it, both from zero weights. run_anc cancels one recording
and returns its error signal; mse_trace summarises such a signal in
windows, as the CLI's anc --mse-csv writes it. run_anc uses exact block
LMS: the errors of a block of steps solve a triangular system whose matrix
does not depend on the weights, so a chunk of blocks is solved at once and
only a short chain of block updates runs serially. It gives the same errors
and weights as stepping the recursion, up to float summation order.
run_anc_batch steps a (B, n) stack of independent cancellers, one per row,
in lockstep, a few vectorised calls per sample, and writes their errors
over the primaries, which may be the references themselves.

Both loops share one divergence rule: a run has diverged at the first step
whose error is non-finite or beyond _DIVERGED times its primary's peak, and
a run whose errors all pass but whose final weights are non-finite has
diverged at its last step.

With the reference and the step fixed, the weights and the errors are
linear in the primary, so the errors of primary a + c*b are errors(a) +
c*errors(b). A sweep uses this to cancel every SNR point of a take from two
runs: one on the clean take, one on the unit noise, read against itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DivergenceError, ParameterError
from .signal_io import AudioBuffer

MSE_WINDOW = 256

# run_anc steps a recording in blocks of this many samples and solves this
# many blocks' triangular systems at once.
_BLOCK = 16
_CHUNK_BLOCKS = 128

# run_anc_batch checks its error signals for divergence once per this many
# steps rather than on every step.
_CHECK_EVERY = 512

# A run has diverged at the first step whose error is non-finite or beyond
# this multiple of its primary's peak. A stable canceller's error is the
# primary minus a prediction of part of it, so it stays within a few times
# that peak, while an unstable one grows geometrically: a margin this wide
# flags no stable run, yet an unstable one crosses it long before float64
# overflows.
_DIVERGED = 1e6


@dataclass(frozen=True)
class LmsConfig:
    """Filter order and step size.

    order_l taps index delays 0..L, so the weight vector has L+1 entries.
    """

    order_l: int = 31
    step_mu: float = 0.005

    def __post_init__(self):
        if self.order_l < 0:
            raise ParameterError("order_l must be >= 0")
        if not 0 < self.step_mu < np.inf:
            raise ParameterError("step_mu must be finite and positive")


def run_anc(
    primary: AudioBuffer, reference: AudioBuffer, config: LmsConfig
) -> AudioBuffer:
    """Run the LMS canceller over a whole recording, from zero weights, and
    return its error signal, the denoised estimate.

    The reference should carry the noise that contaminates the primary; a
    zero reference leaves the primary untouched. Raises DivergenceError
    naming the first step whose error is non-finite or beyond _DIVERGED
    times the primary's peak, or the last step if only the final weights
    are non-finite.
    """
    if len(primary) != len(reference):
        raise DimensionError(
            f"length mismatch: primary {len(primary)} vs reference {len(reference)}"
        )
    if primary.sample_rate_hz != reference.sample_rate_hz:
        raise DimensionError("sample rate mismatch between primary and reference")
    if len(primary) == 0:
        raise DimensionError("empty input")

    order_l = config.order_l
    d = primary.samples
    # Row k is step k's delay line, oldest sample first.
    windows = sliding_window_view(
        np.concatenate([np.zeros(order_l), reference.samples]), order_l + 1
    )
    errors = np.empty(len(d))
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _block_lms(d, windows, config.step_mu, errors)
    found = _first_divergent(errors[None], _DIVERGED * max(d.max(), -d.min()))
    if found:
        raise DivergenceError(found[0])
    if not np.all(np.isfinite(weights)):
        raise DivergenceError(len(d) - 1)
    return AudioBuffer(errors, primary.sample_rate_hz)


def _block_lms(d: np.ndarray, windows: np.ndarray, mu: float, errors: np.ndarray) -> np.ndarray:
    """Exact LMS from zero weights in blocks of _BLOCK steps; fills errors,
    returns the final weights.

    The weights are kept oldest tap first here, to match the windows. A
    block that starts at weights w has errors e = sol @ [1, -w], sol its
    _block_solves solution, and ends at w + 2*mu * X^T e.
    """
    n = len(d)
    taps = windows.shape[1]
    span = _BLOCK * _CHUNK_BLOCKS
    full = n - n % _BLOCK
    chunks = [(s, min(full, s + span), _BLOCK) for s in range(0, full, span)]
    if full < n:
        chunks.append((full, n, n - full))
    # omega = [1, -w], so a block's errors are one product with it.
    omega = np.zeros(taps + 1)
    omega[0] = 1.0
    minus_w = omega[1:]
    dot = np.dot
    # One set of buffers serves every chunk, so a call maps and zero-fills
    # them once rather than once per chunk; each chunk reshapes a prefix.
    gram_buf = np.empty(_CHUNK_BLOCKS * _BLOCK * _BLOCK)
    sol_buf = np.empty(_CHUNK_BLOCKS * _BLOCK * (taps + 1))
    step_buf = np.empty(_CHUNK_BLOCKS * _BLOCK * taps)
    for start, stop, m in chunks:
        x = windows[start:stop].reshape(-1, m, taps)
        blocks = len(x)
        gram = gram_buf[: blocks * m * m].reshape(blocks, m, m)
        sol = sol_buf[: blocks * m * (taps + 1)].reshape(blocks, m, taps + 1)
        _block_solves(x, d[start:stop].reshape(-1, m), 2.0 * mu, gram, sol)
        step = np.multiply(x, -2.0 * mu, out=step_buf[: x.size].reshape(x.shape))
        out = errors[start:stop].reshape(-1, m)
        for b in range(blocks):
            minus_w += dot(dot(sol[b], omega, out=out[b]), step[b])
    return -minus_w[::-1]


def _block_solves(
    x: np.ndarray, d: np.ndarray, two_mu: float, gram: np.ndarray, sol: np.ndarray
) -> None:
    """Forward substitution for a stack of blocks' LMS systems at once.

    Block b's errors e, from start weights w, solve the unit lower
    triangular system (I + 2*mu*tril(X X^T, -1)) e = d_b - X w, X = x[b]
    its delay lines (Benesty and Duhamel, "A fast exact least mean square
    adaptive algorithm", IEEE Trans. SP 40(12), 1992). The matrix does not
    depend on w, so the solution sol[b] against [d_b | X] gives
    e = sol[b] @ [1, -w]. For (blocks, m, taps) delay lines, gram is a
    (blocks, m, m) scratch buffer and sol the (blocks, m, taps + 1) buffer
    the solutions are written to.
    """
    np.matmul(x, x.transpose(0, 2, 1), out=gram)
    gram *= two_mu
    sol[:, :, 0] = d
    sol[:, :, 1:] = x
    for i in range(1, x.shape[1]):
        sol[:, i] -= (gram[:, i, None, :i] @ sol[:, :i])[:, 0]


def run_anc_batch(primaries: np.ndarray, references, order_l: int, mus) -> None:
    """Run B zero-start LMS cancellers in lockstep and write their errors
    over their primaries.

    primaries and references are (B, n) stacks: row i is canceller i, which
    cancels references[i] out of primaries[i] with step size mus[i]. On
    return row i of primaries holds run_anc's error signal for
    LmsConfig(order_l, mus[i]), up to the float summation order of the
    combiner output; rows never interact. references may be primaries
    itself: run_anc_batch(u, u, ...) leaves in u the errors of cancelling u
    out of itself. Raises DivergenceError carrying the row and the first
    step whose error is non-finite or beyond _DIVERGED times that row's
    primary peak (the earliest such step, then the lowest row), or the last
    step and the lowest row whose final weights are non-finite; the
    primaries are then partly overwritten.
    """
    if not (isinstance(primaries, np.ndarray) and primaries.dtype == np.float64):
        raise ParameterError("primaries must be a float64 array; errors are written over it")
    d = primaries
    x = np.asarray(references, dtype=np.float64)
    if d.ndim != 2 or d.shape != x.shape:
        raise DimensionError(
            f"primaries {d.shape} and references {x.shape} must be equal (B, n) stacks"
        )
    b, n = d.shape
    if n == 0:
        raise DimensionError("empty input")
    if order_l < 0:
        raise ParameterError("order_l must be >= 0")
    mus = np.asarray(mus, dtype=np.float64)
    if mus.shape != (b,):
        raise DimensionError(f"need one step size per row ({b}), got shape {mus.shape}")
    if not np.all((mus > 0) & (mus < np.inf)):
        raise ParameterError("every step size must be finite and positive")
    two_mu = 2.0 * mus

    taps = order_l + 1
    # The loop runs time-major, so that each step reads and writes contiguous
    # (B,) and (taps, B) blocks. Step k's delay lines are x[:, k-L : k+1],
    # oldest sample first, so the weights are stored oldest tap first too.
    # Each chunk of steps reads its delay lines from a transposed copy of the
    # reference samples it needs: the L before the chunk, carried over from
    # the last chunk's copy (zeros before step 0), then the chunk's own,
    # copied before any of them is overwritten. The chunk's errors are
    # stepped in `errors` and then written back over its primaries, so they
    # may be written over the references.
    rows = np.zeros((order_l + _CHECK_EVERY, b))
    errors = np.empty((_CHECK_EVERY, b))
    weights = np.zeros((taps, b))
    product = np.empty_like(weights)
    gain = np.empty(b)
    ones = np.ones(taps)
    # Per-row bounds, taken before any primary is overwritten, from
    # reductions that allocate no (B, n) temporary.
    limits = _DIVERGED * np.maximum(d.max(axis=1), -d.min(axis=1))[:, None]
    multiply, dot = np.multiply, np.dot
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _CHECK_EVERY):
            stop = min(n, start + _CHECK_EVERY)
            if start:
                rows[:order_l] = rows[_CHECK_EVERY:]
            rows[order_l : order_l + stop - start] = x[:, start:stop].T
            chunk = errors[: stop - start]
            chunk[...] = d[:, start:stop].T
            windows = _time_windows(rows[: order_l + stop - start], taps)
            for window, e in zip(windows, chunk):
                multiply(weights, window, product)
                e -= dot(ones, product, gain)
                multiply(e, two_mu, gain)
                weights += multiply(window, gain, product)
            d[:, start:stop] = chunk.T
            found = _first_divergent(d[:, start:stop], limits)
            if found:
                raise DivergenceError(start + found[0], row=found[1])
    finite = np.all(np.isfinite(weights), axis=0)
    if not np.all(finite):
        raise DivergenceError(n - 1, row=int(np.argmin(finite)))


def _time_windows(x: np.ndarray, taps: int) -> np.ndarray:
    """(m - taps + 1, taps, B) view of a time-major (m, B) stack whose k-th
    entry is x[k : k + taps]."""
    return sliding_window_view(x, taps, axis=0).transpose(0, 2, 1)


def _first_divergent(errors: np.ndarray, limits) -> tuple[int, int] | None:
    """(step, row) of the first error in a (B, n) stack that is non-finite
    or beyond its row's limit in magnitude, else None. The earliest step
    wins, then the lowest row."""
    steps, rows = np.nonzero((~(np.abs(errors) <= limits)).T)
    if not len(steps):
        return None
    return int(steps[0]), int(rows[0])


def mse_trace(errors: np.ndarray, window: int) -> np.ndarray:
    """Mean of squared errors over non-overlapping windows.

    A trailing partial window contributes its own mean. Empty input gives an
    empty trace.
    """
    if window < 1:
        raise ParameterError("window must be >= 1")
    errors = np.asarray(errors, dtype=np.float64)
    n = len(errors)
    if n == 0:
        return np.empty(0)
    squared = errors**2
    full = n // window
    trace = []
    if full:
        trace.append(squared[: full * window].reshape(full, window).mean(axis=1))
    if n % window:
        trace.append([squared[full * window :].mean()])
    return np.concatenate(trace)
