"""Generated per-cycle row recorders.

Observers that evaluate their per-cycle work in batches (the global
power model, the protocol checker) record one tuple of committed bus
values per clock cycle and evaluate the buffered rows when a ``run``
call ends.  :func:`compile_front_end` generates the clock-process
closure that does the recording, so every signal is a free variable
bound once and the per-cycle cost is slot loads and one tuple append.

A row the batched evaluation cannot reproduce exactly — one whose
values would make a per-cycle evaluation raise, or any row while the
observer must act at the cycle itself — is *diverted*: the closure
flushes the buffered rows (so the observer's state is current), then
hands the row to the observer's scalar per-cycle reference, in the
cycle's own process.
"""

from __future__ import annotations


def compile_front_end(prelude, divert, rows, flush, scalar, cap,
                      namespace, args="", filename="<row-front-end>"):
    """Compile and return one recording closure.

    Parameters
    ----------
    prelude:
        Source lines (indented four spaces) that bind ``_row``, the
        cycle's row tuple, plus any locals *divert* reads.
    divert:
        A Python expression; when true the row goes to *scalar*
        instead of the buffer.
    rows:
        The list rows are appended to.
    flush:
        Evaluates and clears *rows*; called before a diverted row and
        whenever *rows* holds *cap* rows.
    scalar:
        ``scalar(rows)`` evaluates rows one cycle at a time.
    namespace:
        Free variables *prelude* and *divert* refer to.
    args:
        Parameter list of the closure (empty for a clock process).
    """
    namespace = dict(namespace)
    namespace.update({
        "_append": rows.append,
        "_rows": rows,
        "_cap": cap,
        "_flush": flush,
        "_scalar": scalar,
    })
    source = (
        "def _push(%s):\n"
        "%s"
        "    if %s:\n"
        "        _flush()\n"
        "        _scalar((_row,))\n"
        "        return\n"
        "    _append(_row)\n"
        "    if len(_rows) >= _cap:\n"
        "        _flush()\n" % (args, prelude, divert))
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_push"]
