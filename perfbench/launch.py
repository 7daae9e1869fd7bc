"""Child process of one CLI request: ``python launch.py RID MODE PATH ARGV...``.

Equivalent to ``python -m bcgame.cli ARGV...``, plus a ready stamp: once
``bcgame`` is imported it writes ``perfbench-ready <monotonic ns>`` to
stderr, which gives the parent the set-up time of a fresh interpreter.
MODE ``off`` records nothing (PATH is ignored); ``spans`` and ``memory``
install the wrappers of ``spans.py`` in that mode and write what they
recorded for request RID to PATH on exit.
"""

import sys
import time


def main() -> int:
    rid, mode, path, *argv = sys.argv[1:]
    import bcgame.cli

    sys.stderr.write(f"perfbench-ready {time.monotonic_ns()}\n")
    sys.stderr.flush()
    if mode == "off":
        return bcgame.cli.main(argv)

    import spans

    recorder = spans.Recorder(rid)
    spans.install(recorder, memory=mode == "memory")
    try:
        return bcgame.cli.main(argv)
    finally:
        recorder.write(path)


if __name__ == "__main__":
    sys.exit(main())
