"""Say a protocol step by keyword, the way the unit tests like to write it.

Components call a probe's table directly with a dict literal (see
``repro.obs.probe``); this is that call for a test that wants to drive
observers with hand-made events.
"""


def emitter(probe):
    """``emit(t, kind, source, **detail)`` into *probe*'s subscribers."""

    def emit(t, kind, source, **detail):
        on = probe.get(kind) or probe.get(kind.rpartition(".")[0] + ".*")
        if on is not None:
            on(t, kind, source, detail)

    return emit
