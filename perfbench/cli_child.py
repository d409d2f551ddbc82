"""Run one `sal` command with layer tracing.

Usage: python perfbench/cli_child.py ARGS...   (PYTHONPATH must hold src)

Behaves like `python -m salogic ARGS...`, then prints a marker line and
the layer totals as JSON after the command's own output.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    import salogic.cli

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from contract import layer_hooks
    from tracer import TRACE_MARK, Tracer, install

    tracer = Tracer()
    install(tracer, layer_hooks())
    code = salogic.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stdout.write("\n" + TRACE_MARK + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
