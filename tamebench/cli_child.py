"""Traced CLI entry point: ``python cli_child.py DUMP ARGS...``.

Imports tamenorm.cli, wraps every layer with `tracer.Tracer`, runs
``tamenorm.cli.main(ARGS)`` and writes the tracer's dump to DUMP.  The exit
code is the one ``python -m tamenorm.cli ARGS`` would give: main's return
value, argparse's exit code, or 1 for an uncaught exception.
"""

import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tamenorm.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        code = tamenorm.cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
        with open(dump_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
