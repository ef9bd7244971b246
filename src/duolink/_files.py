"""Output files that appear whole or not at all."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path):
    """Text file handle whose contents replace `path` only when the block
    completes.

    The data goes to a hidden temp file in the same directory, which
    os.replace then moves over `path`; if the block or the move fails, the
    temp file is removed and `path` keeps its previous contents (or stays
    absent). This guards against interrupted processes, not power loss
    (nothing is fsynced).
    """
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
