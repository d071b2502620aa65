import numpy as np

from wavemod import burst_length, synthesis_pulse

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


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
