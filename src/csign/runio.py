"""Run input names and output files, with the standard library only.

The command line needs both before it knows whether a run imports numpy:
the input-state selectors are the choices of ``--input``, and every output
file, from ``calibrate --out`` to a sweep's CSVs, goes through
:func:`atomic_write`.
"""

from __future__ import annotations

import os

#: names of the input states a run can start from (see ``circuit.input_state``)
INPUT_SELECTORS = ("p_test", "random")


def atomic_write(path: str, text: str):
    """``text`` to the file ``path``, creating its directory; a reader sees the
    old file or the whole new one, never a partial write.  The file gets the
    mode a plain ``open`` gives a new file, not ``mkstemp``'s 0600."""
    import tempfile  # with shutil and random: only a run that writes a file pays

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)  # os.umask only reads the mask by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
