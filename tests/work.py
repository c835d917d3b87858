"""Counting work, not wall time, for the tests that pin linear costs."""

import sys


def line_events(module, run) -> int:
    """The line events that ``run()`` executes in ``module``'s source file."""
    path, count = module.__file__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count
