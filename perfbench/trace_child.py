"""Run the photon-duality CLI under the tracer and dump its spans.

    python3 perfbench/trace_child.py SPANS_FILE CLI_ARGS...

The traced counterpart of the `photon-duality` console script, used by the
cli-defaults workload's traced operations; exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    from photon_duality import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
