"""Start ``tetra serve`` with the benchmark's layer wrappers installed.

The traced serve workloads launch the server through this script instead
of ``python -m repro.tools.cli serve``: it installs the wrappers from
:mod:`layers`, then calls ``repro.serve.http.serve`` with the same
operator defaults (ephemeral port, 2 sandbox workers).  Sandbox workers
fork from this process, inherit the wrappers and append their spans to
per-pid files in ``--spill-dir`` after every request; this process
writes its own spans there when the server exits (SIGINT)::

    python bench/serve_launcher.py --spill-dir DIR
"""

import argparse
import sys

import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spill-dir", required=True)
    args = parser.parse_args(argv)
    tracer = layers.install(layers.Tracer(args.spill_dir), serve=True)
    from repro.serve import ServeConfig
    from repro.serve.http import serve

    try:
        return serve(ServeConfig(port=0, workers=2))
    finally:
        tracer.spill()


if __name__ == "__main__":
    sys.exit(main())
