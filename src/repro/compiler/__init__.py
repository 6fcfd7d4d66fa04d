"""The Tetra compiler: the native tier (:mod:`repro.compiler.native`).

It lowers numeric functions and merge-safe ``parallel for`` loops to C
with pthreads, the paper's future-work compiler; ``tetra compile`` prints
that C.
"""
