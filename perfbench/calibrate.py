"""Reference work that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py

A fixed mix of interpreter start-up, numpy import, FFTs at two sizes,
elementwise array work and a pure-Python loop, sharing no code with the
program under test.  run.py times it as its own process between samples.
"""

import numpy as np

if __name__ == "__main__":
    x = np.linspace(-20.0, 20.0, 16384)
    field = np.exp(-x * x)
    for _ in range(90):
        spectrum = np.fft.fft(field) * np.exp(-1e-4 * np.arange(x.size))
        field = 0.5 * (field + np.fft.ifft(spectrum).real ** 2)
    small = np.cos(np.linspace(0.0, 6.0, 1024))
    for _ in range(2200):
        small = np.fft.ifft(np.fft.fft(small)).real
    total = 0
    for i in range(600000):
        total += i % 7
