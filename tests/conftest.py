import numpy as np

from wavemod import add_cp, burst_length, synthesis_pulse
from wavemod.sim import _convolve_rows

acceptance_verdicts: list[str] = []


def fbmc_burst(p, k, ms, d):
    """FBMC-OQAM burst from its definition: the double sum of synthesis pulses."""
    nb = burst_length(p, k, ms)
    x = np.zeros(nb, dtype=complex)
    for m in range(ms):
        for kk in range(k):
            s = d[m * k + kk]
            x += s.real * synthesis_pulse(kk, m, "I", p, k, nb)
            x += 1j * s.imag * synthesis_pulse(kk, m, "Q", p, k, nb)
    return x


def cp_channel(x, taps, n_cp):
    """The channel as a CP frame meets it in the pipeline.

    Prefix ``x`` with ``n_cp`` samples, convolve linearly with ``_convolve_rows``
    and strip the prefix again, as the CP receivers do.
    """
    y = _convolve_rows(add_cp(x, n_cp)[None, :], np.asarray(taps, dtype=complex))[0]
    return y[n_cp:n_cp + len(x)]


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
