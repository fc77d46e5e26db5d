"""The request-path benchmark (see ``benchmarks/e2e/README.md``).

Everything here drives the system under test from outside: the
benchmark imports ``repro`` only to generate inputs, to compute oracle
answers, and — in the traced pass — to time calls into each layer's
public functions. Nothing under ``src/`` knows it is being measured.
"""
