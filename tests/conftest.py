import numpy as np
from oracle import add_cp, convolve_rows

from wavemod import oqam_modulate

# Largest difference from a dense oracle, relative to the larger of 1 and the
# oracle's largest output, that a fast path may show.
TOL = 1e-10

acceptance_verdicts: list[str] = []


def oqam_columns(mats):
    """The core's OQAM pair (A_i, A_q) as dense matrices, one unit symbol per column.

    A unit real symbol emits its A_i column and a unit imaginary one j times
    its A_q column; the modem returns one frame per row, hence the transposes.
    """
    eye = np.eye(mats.n_symbols)
    return oqam_modulate(mats, eye).T, -1j * oqam_modulate(mats, 1j * eye).T


def cp_channel(x, taps, n_cp):
    """The channel as a CP frame meets it in the pipeline.

    Prefix ``x`` with ``n_cp`` samples, convolve linearly with the reference
    channel and strip the prefix again, as the CP receivers do.
    """
    y = convolve_rows(add_cp(x, n_cp)[None, :], taps)[0]
    return y[n_cp:n_cp + len(x)]


def receive(adapter, y, taps, noise_var):
    """(count, n_data) estimates of (count, samples) received frames: equalize, then demodulate."""
    cols = adapter.zf_cols(y.shape[1])
    return adapter.demodulate(adapter.equalize(y[:, cols], np.asarray(taps)), noise_var)


def received(adapter, x, taps, noise, noise_var):
    """(count, frame_len + n_taps - 1) frames ``x`` through the reference channel, with noise.

    ``noise`` is a chunk's standard-normal (samples, count) noise as the
    pipeline draws it, over the columns zero forcing reads; scaled to
    ``noise_var``, it is added there.
    """
    y = convolve_rows(x, taps)
    y[:, adapter.zf_cols(y.shape[1])] += np.sqrt(noise_var / 2.0) * noise.T
    return y


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
