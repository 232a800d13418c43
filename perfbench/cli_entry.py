"""The ``parabolic-sv`` console script, run from a source checkout.

    python3 perfbench/cli_entry.py price --config price.cfg --out price.out

With ``PERFBENCH_TRACE_OUT`` set, the run is traced (see ``tracing``) and its
spans are written to that file when the command returns.
"""
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from parabolic_sv.cli import main as cli_main

        return cli_main()

    import tracing

    tracer = tracing.Tracer("cli_cold")
    tracing.install(tracer)
    from parabolic_sv.cli import main as cli_main

    try:
        return cli_main()
    finally:
        for rec in tracer.spans:
            if rec["name"] == "cli.main":
                rec.setdefault("meta", {})["command"] = sys.argv[1]
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
