"""Start one eulercc command-line process, as the `eulercc` console script does.

    python3 perfbench/cli_child.py [--trace-out PATH] -- <eulercc arguments>

With --trace-out, the tracer is installed after the package import and the
span summary of the call, with the import time, is written to PATH as JSON.
"""

import sys
import time

t0 = time.perf_counter()
import eulercc.cli  # noqa: E402

import_s = time.perf_counter() - t0


def main():
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    if not opts:
        return eulercc.cli.main(argv)
    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return eulercc.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(opts[1], "w") as fh:
            json.dump({"import_s": import_s, "summary": tracer.summary()}, fh)


if __name__ == "__main__":
    sys.exit(main())
