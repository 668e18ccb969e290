"""One experiment in a fresh process, as a user of the command line meets it.

    python3 child.py MODE LAUNCH RESULT -- EXPERIMENT [--set KEY=VALUE]...

MODE is "setup" (stop once the experiment could start), "run" or "trace"
(run it with the timing wrappers of spans.py installed). LAUNCH is the
CLOCK_MONOTONIC reading the parent took just before starting this process,
so set-up time covers interpreter start, importing conical_lab.vericli
(numpy and scipy) and parsing the configuration. Run time covers
vericli.main, from the runner's start to its written CSV. The figures go to
the JSON file RESULT; the exit code is the one vericli.main returns.
"""

import json
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    mode, launch, result = argv[0], float(argv[1]), argv[2]
    if mode not in ("setup", "run", "trace") or argv[3] != "--":
        raise SystemExit(f"usage: {__doc__}")
    cli_args = argv[4:]

    from conical_lab import vericli

    overrides = [cli_args[i + 1] for i, a in enumerate(cli_args) if a == "--set"]
    vericli.ExperimentConfig.parse("", overrides)
    ready = _now()
    out = {"setup_s": ready - launch}
    code = 0
    if mode != "setup":
        import resource

        rec = None
        if mode == "trace":
            import spans

            rec = spans.Recorder(clock=_now)
            spans.install(rec)
        start = _now()
        if rec is None:
            code = vericli.main(cli_args)
        else:
            code = rec.call("vericli", vericli.main, cli_args)
        out["run_s"] = _now() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["exit_code"] = code
        if rec is not None:
            out["layers"] = spans.aggregate(rec.spans)
            out["operators"] = rec.operators
            out["expm_mb"] = rec.expm_bytes / 2**20
            out["spans"] = [s._asdict() for s in rec.spans]
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
