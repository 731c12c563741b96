"""The benchmark's tracer still attaches to the program: every name it wraps
exists, and uninstalling puts each original back."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.trace import Tracer  # noqa: E402


def test_install_then_uninstall_restores_every_attribute():
    tracer = Tracer(16000)
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
