"""Run one ``ttsem`` CLI command in this process, as the console script does.

    python3 perfbench/cli_child.py [--speed SPEED.json] [--trace SPANS.npz] [--refs REFS.json] \
        -- <ttsem arguments>

``--speed`` samples the host speed in this process (hostspeed.py) and
writes the probe summary at exit.  ``--trace`` wraps ttsem's functions in
spans (tracing.py) and writes them once at exit.  ``--refs`` records the means every ``gmm.fit_reference_em``
call returns, so the harness can compare them with its own EM.  The exit
code is the CLI's; with no ttsem arguments the child only imports ttsem
and exits 0, which times the start of a Python process that uses it.
"""

import os
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    speed_path, trace_path, refs_path = (
        opts[opts.index(flag) + 1] if flag in opts else None for flag in ("--speed", "--trace", "--refs"))

    import json

    from hostspeed import HostSpeed

    speed = HostSpeed()
    if speed_path is not None:
        speed.start()

    import ttsem.cli
    import ttsem.gmm

    import_s = time.perf_counter() - T0
    refs = []
    if refs_path is not None:
        fit = ttsem.gmm.fit_reference_em

        def recording_fit(*args, **kwargs):
            theta = fit(*args, **kwargs)
            refs.append([float(v) for v in theta.mu])
            return theta

        ttsem.gmm.fit_reference_em = recording_fit
    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        code = ttsem.cli.main(cli_args) if cli_args else 0
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.save(trace_path, speed.intervals,
                        extra={"cli.import_ns": int(import_s * 1e9), "cli.children": 1})
        if refs_path is not None:
            with open(refs_path, "w", encoding="ascii") as fh:
                json.dump(refs, fh)
        if speed_path is not None:
            probe = speed.stop()
            with open(speed_path, "w", encoding="ascii") as fh:
                json.dump(probe, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
